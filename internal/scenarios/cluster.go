package scenarios

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sequoia"
	"repro/internal/sqlmini"
)

// SequoiaCluster is a live controllers × backends deployment used by the
// Figure 5/6 scenarios and benchmarks.
type SequoiaCluster struct {
	Group       *sequoia.Group
	Controllers []*sequoia.Controller
	Backends    []*dbms.Server

	closers []func()
}

// newSequoiaCluster builds controllers × backendsPer real servers, all
// enabled, with a kv table on every backend.
func newSequoiaCluster(controllers, backendsPer int) (*SequoiaCluster, error) {
	cl := &SequoiaCluster{Group: sequoia.NewGroup()}
	fail := func(err error) (*SequoiaCluster, error) {
		cl.Close()
		return nil, err
	}
	for ci := 0; ci < controllers; ci++ {
		ctrl := sequoia.NewController(fmt.Sprintf("controller-%d", ci+1), "vdb", cl.Group,
			sequoia.WithControllerUser("app", "app-pw"))
		for bi := 0; bi < backendsPer; bi++ {
			name := fmt.Sprintf("db%d-%d", ci+1, bi+1)
			db := sqlmini.NewDB()
			db.MustExec("CREATE TABLE kv (k VARCHAR NOT NULL PRIMARY KEY, v INTEGER)")
			srv := dbms.NewServer(name, dbms.WithUser("seq", "seq-pw"))
			srv.AddDatabase("shard", db)
			if err := srv.Start("127.0.0.1:0"); err != nil {
				return fail(err)
			}
			cl.closers = append(cl.closers, srv.Stop)
			cl.Backends = append(cl.Backends, srv)
			ctrl.AddBackend(&sequoia.Backend{
				Name:   name,
				URL:    "dbms://" + srv.Addr() + "/shard",
				Props:  client.Props{"user": "seq", "password": "seq-pw"},
				Driver: dbms.NewNativeDriver(dbver.V(1, 0, 0), 1),
			})
			if err := ctrl.EnableBackend(name); err != nil {
				return fail(err)
			}
		}
		if err := ctrl.Start("127.0.0.1:0"); err != nil {
			return fail(err)
		}
		cl.closers = append(cl.closers, ctrl.Stop)
		cl.Controllers = append(cl.Controllers, ctrl)
	}
	return cl, nil
}

// Close stops everything.
func (cl *SequoiaCluster) Close() {
	for i := len(cl.closers) - 1; i >= 0; i-- {
		cl.closers[i]()
	}
}

// URL is the multi-controller Sequoia URL (§5.3.2).
func (cl *SequoiaCluster) URL() string {
	hosts := ""
	for i, c := range cl.Controllers {
		if a := c.Addr(); a != "" {
			if i > 0 && hosts != "" {
				hosts += ","
			}
			hosts += a
		}
	}
	return "sequoia://" + hosts + "/vdb"
}

// SequoiaDriverImage builds a distributable Sequoia driver image for
// this cluster.
func (cl *SequoiaCluster) SequoiaDriverImage(v dbver.Version) *driverimg.Image {
	return &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            sequoia.DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         v,
			ProtocolVersion: 1,
			Options:         map[string]string{"user": "app", "password": "app-pw"},
		},
		Payload: []byte("sequoia driver " + v.String()),
	}
}

// BackendsConsistent checks that all backends of running controllers
// hold identical kv row counts.
func (cl *SequoiaCluster) BackendsConsistent() (bool, string) {
	counts := map[string]int64{}
	var first int64 = -1
	same := true
	for _, srv := range cl.Backends {
		res, err := srv.Database("shard").Exec("SELECT count(*) FROM kv")
		if err != nil {
			return false, "query failed: " + err.Error()
		}
		n := res.Rows[0][0].Int()
		counts[srv.Name()] = n
		if first == -1 {
			first = n
		} else if n != first {
			same = false
		}
	}
	return same, fmt.Sprintf("%v", counts)
}
