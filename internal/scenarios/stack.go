// Package scenarios assembles the repository's subsystems into the
// paper's experiments: every table (1–5) and figure (1–6), the sample-
// code matchmaking checks, the §5.4 case studies, and the quantitative
// upgrade-disruption and lease-traffic measurements that back the
// paper's prose claims. cmd/experiments prints these; bench_test.go
// times the hot paths.
package scenarios

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// Report is one experiment's outcome.
type Report struct {
	ID    string
	Title string
	Lines []string
	// Pass is the experiment's own pass/fail judgement of the paper's
	// qualitative claim.
	Pass bool
}

func (r *Report) logf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Stack is one vertical slice: target DBMS + Drivolution server +
// driver runtime, mirroring the test fixtures but usable from binaries
// and benchmarks.
type Stack struct {
	Target *dbms.Server
	Drv    *core.Server
	RT     *driverimg.Runtime

	closers []func()
}

// StackConfig parameterizes NewStack.
type StackConfig struct {
	// TargetProto is the DBMS wire-protocol version (default 1).
	TargetProto uint16
	// ServerOpts configure the Drivolution server.
	ServerOpts []core.ServerOption
	// Rows seeds the items table with this many rows (default 2).
	Rows int
}

// NewStack boots a target DBMS ("prod" database, user app/app-pw) and a
// standalone Drivolution server, both on loopback.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.TargetProto == 0 {
		cfg.TargetProto = 1
	}
	if cfg.Rows == 0 {
		cfg.Rows = 2
	}
	appDB := sqlmini.NewDB()
	appDB.MustExec("CREATE TABLE items (id INTEGER NOT NULL PRIMARY KEY, name VARCHAR)")
	for i := 1; i <= cfg.Rows; i++ {
		appDB.MustExec("INSERT INTO items (id, name) VALUES (?, ?)", i, fmt.Sprintf("item-%d", i))
	}
	target := dbms.NewServer("prod-db",
		dbms.WithUser("app", "app-pw"),
		dbms.WithProtocolVersion(cfg.TargetProto))
	target.AddDatabase("prod", appDB)
	if err := target.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}

	drv, err := core.NewServer("drivolution-1", core.NewLocalStore(sqlmini.NewDB()), cfg.ServerOpts...)
	if err != nil {
		target.Stop()
		return nil, err
	}
	if err := drv.Start("127.0.0.1:0"); err != nil {
		target.Stop()
		return nil, err
	}

	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())

	s := &Stack{Target: target, Drv: drv, RT: rt}
	s.closers = append(s.closers, target.Stop, drv.Stop)
	return s, nil
}

// Close tears the stack down.
func (s *Stack) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// Defer registers an extra cleanup.
func (s *Stack) Defer(f func()) { s.closers = append(s.closers, f) }

// AppURL is the application-facing URL of the target database.
func (s *Stack) AppURL() string { return "dbms://" + s.Target.Addr() + "/prod" }

// Image builds a dbms-native driver image with credentials baked in.
func (s *Stack) Image(ver dbver.Version, proto uint16, payload int) *driverimg.Image {
	body := make([]byte, payload)
	for i := range body {
		body[i] = byte(i * 31)
	}
	return &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            dbms.DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         ver,
			ProtocolVersion: proto,
			Options:         map[string]string{"user": "app", "password": "app-pw"},
			Packages:        []string{"core"},
		},
		Payload: body,
	}
}

// Bootloader builds a bootloader against the stack's Drivolution server.
func (s *Stack) Bootloader(opts ...core.BootloaderOption) *core.Bootloader {
	return s.bootloaderVia(s.Drv.Addr(), opts...)
}

// bootloaderVia builds the same bootloader with addr — a proxy in front
// of the stack's Drivolution server — as its only server address.
func (s *Stack) bootloaderVia(addr string, opts ...core.BootloaderOption) *core.Bootloader {
	all := append([]core.BootloaderOption{
		core.WithCredentials("app", "app-pw"),
		core.WithDialTimeout(2 * time.Second),
		core.WithRetryInterval(20 * time.Millisecond),
	}, opts...)
	b := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{addr}, s.RT, all...)
	s.Defer(b.Close)
	return b
}

// LegacyDriver is the conventional static driver for the target.
func (s *Stack) LegacyDriver(proto uint16) client.Driver {
	return dbms.NewNativeDriver(dbver.V(1, 0, 0), proto)
}

// LegacyProps are the connection props a legacy client uses.
func (s *Stack) LegacyProps() client.Props {
	return client.Props{"user": "app", "password": "app-pw"}
}
