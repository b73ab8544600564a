package main

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

var (
	benchAPI      = dbver.APIOf("JDBC", 3, 0)
	benchPlatform = dbver.PlatformLinuxAMD64
)

const (
	appUser     = "app"
	appPassword = "app-pw"
	opTimeout   = 5 * time.Second
)

// baseRequest is the bootstrap request of one virtual client.
func baseRequest(clientID string) core.Request {
	return core.Request{
		Database:       "prod",
		User:           appUser,
		Password:       appPassword,
		API:            benchAPI,
		ClientPlatform: benchPlatform,
		ClientID:       clientID,
	}
}

// newImage builds a dbms-native driver image; the payload bytes depend
// on the version, so every version has its own checksum.
func newImage(ver dbver.Version, payload int) *driverimg.Image {
	body := make([]byte, payload)
	for i := range body {
		body[i] = byte(i*31 + ver.Minor*7 + ver.Micro)
	}
	return &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            dbms.DriverKind,
			API:             benchAPI,
			Version:         ver,
			ProtocolVersion: 1,
			Options:         map[string]string{"user": appUser, "password": appPassword},
		},
		Payload: body,
	}
}

func itemName(seed int64, id int) string {
	return "item-" + strconv.FormatInt(seed, 10) + "-" + strconv.Itoa(id)
}

// newItemsDB is the application database: items(id, name), seeded.
func newItemsDB(seed int64, rows int) (*sqlmini.DB, error) {
	db := sqlmini.NewDB()
	if _, err := db.Exec("CREATE TABLE items (id INTEGER NOT NULL PRIMARY KEY, name VARCHAR)"); err != nil {
		return nil, err
	}
	for i := 1; i <= rows; i++ {
		if _, err := db.Exec("INSERT INTO items (id, name) VALUES (?, ?)", i, itemName(seed, i)); err != nil {
			return nil, err
		}
	}
	return db, nil
}

const itemQuery = "SELECT name FROM items WHERE id = ?"

// queryItem runs the application query and checks the seeded row.
func queryItem(conn client.Conn, seed int64, id int) error {
	res, err := conn.Query(itemQuery, id)
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != itemName(seed, id) {
		return fmt.Errorf("items row %d: got %v, want %q", id, res.Rows, itemName(seed, id))
	}
	return nil
}

// instance is one set-up workload: the stack, the population and the
// op that drives it.
type instance struct {
	// op runs one timed op on generator connection c. It draws its
	// choices from rng only, so the op sequence is a function of the
	// seed.
	op func(c int, rng *rand.Rand, sp *spanBuf) error
	// roundOps, when non-zero, makes the workload run in rounds of
	// that many ops per connection: beginRound, every connection's
	// share, endRound. roundsPerRun is the workload's Rounds.
	roundOps     int
	roundsPerRun int
	beginRound   func(rng *rand.Rand) error
	endRound     func() error
	// check runs the end-of-run correctness checks; nil when every
	// round already checked itself.
	check func() error

	// setupOps counts the protocol exchanges set-up made.
	setupOps int
	// srv is the Drivolution server under test; target the DBMS behind
	// it, when the workload has one.
	srv       *core.Server
	target    *dbms.Server
	connStore *core.ConnStore
	probe     *storeProbe
	// signKey signs the driver images, when the workload signs them.
	signKey ed25519.PrivateKey
	// noChangeRenewals says every spanRequest of this workload is a
	// no-change renewal, which must cross the store exactly once.
	noChangeRenewals bool
	// legacyConnect opens an application connection with a plain
	// legacy driver, and installedConnect through an already-installed
	// bootloader: their difference is the interception overhead.
	legacyConnect    func() (client.Conn, error)
	installedConnect func() (client.Conn, error)
	closers          []func()
}

// roundsIn is how many rounds a phase of the given nominal length
// runs: its share of the run's fixed count, at least one.
func (in *instance) roundsIn(length time.Duration) int {
	n := int(math.Round(float64(in.roundsPerRun) * length.Seconds() / defaultSeconds))
	if n < 1 {
		return 1
	}
	return n
}

func (in *instance) deferClose(f func()) { in.closers = append(in.closers, f) }

func (in *instance) closeAll() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
	in.closers = nil
}

// localStore returns a fresh in-database store, wrapped in the timing
// store when the run is traced.
func localStore(in *instance, tr *tracer) (core.Store, *sqlmini.DB) {
	db := sqlmini.NewDB()
	local := core.NewLocalStore(db)
	if tr == nil {
		return local, db
	}
	in.probe = newStoreProbe(tr.store)
	return &timedLocal{LocalStore: local, p: in.probe}, db
}

func startServer(in *instance, name string, store core.Store, opts ...core.ServerOption) error {
	srv, err := core.NewServer(name, store, opts...)
	if err != nil {
		return err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	in.srv = srv
	in.deferClose(srv.Stop)
	return nil
}

// addFirstDriver stores version 1.0.0 of the workload's image and
// returns its checksum.
func addFirstDriver(in *instance, p runParams) (string, error) {
	img := newImage(dbver.V(1, 0, 0), p.cfg.PayloadBytes)
	if _, err := in.srv.AddDriver(img, dbver.FormatImage); err != nil {
		return "", err
	}
	return img.Checksum(), nil // after AddDriver: a signing server signs the image first
}

// leasePop is a population of virtual clients, each a lease id and
// the checksum it runs, driven over one LeaseClient per connection.
// Client i belongs to connection i % conns.
type leasePop struct {
	clients [conns]*core.LeaseClient
	ids     []string
	lease   []uint64
	sum     []string
}

func newLeasePop(in *instance, n int) (*leasePop, error) {
	p := &leasePop{ids: make([]string, n), lease: make([]uint64, n), sum: make([]string, n)}
	for i := range p.ids {
		p.ids[i] = "client-" + strconv.Itoa(i)
	}
	for c := range p.clients {
		lc, err := core.DialLeaseClient(in.srv.Addr(), opTimeout)
		if err != nil {
			return nil, err
		}
		p.clients[c] = lc
		in.deferClose(lc.Close)
	}
	return p, nil
}

// eachConn runs f for every connection's share of clients, one
// goroutine per connection, and returns the first error.
func (p *leasePop) eachConn(f func(c, i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(p.ids); i += conns {
				if err := f(c, i); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// bootstrap takes every client through a real REQUEST→OFFER grant.
func (p *leasePop) bootstrap(wantSum string) error {
	return p.eachConn(func(c, i int) error {
		offer, err := p.clients[c].Request(baseRequest(p.ids[i]))
		if err != nil {
			return fmt.Errorf("bootstrap %s: %w", p.ids[i], err)
		}
		if !offer.HasDriver || offer.DriverChecksum != wantSum || offer.LeaseID == 0 {
			return fmt.Errorf("bootstrap %s: unexpected offer %+v", p.ids[i], offer)
		}
		p.lease[i], p.sum[i] = offer.LeaseID, offer.DriverChecksum
		return nil
	})
}

func (p *leasePop) renewRequest(i int) core.Request {
	req := baseRequest(p.ids[i])
	req.LeaseID, req.CurrentChecksum = p.lease[i], p.sum[i]
	return req
}

// renew runs one no-change renewal of client i on connection c and
// checks the answer: same lease, same driver, no transfer.
func (p *leasePop) renew(c, i int, sp *spanBuf) error {
	sp.begin(spanRequest)
	offer, err := p.clients[c].Request(p.renewRequest(i))
	sp.end()
	if err != nil {
		return err
	}
	if offer.LeaseID != p.lease[i] || offer.HasDriver || offer.DriverChecksum != p.sum[i] {
		return fmt.Errorf("renewal of %s: unexpected offer %+v", p.ids[i], offer)
	}
	return nil
}

// pick draws one of connection c's clients.
func (p *leasePop) pick(c int, rng *rand.Rand) int {
	share := (len(p.ids) - c + conns - 1) / conns
	return c + conns*rng.Intn(share)
}

// liveLeases counts unreleased, unexpired lease rows.
func liveLeases(exec func(sql string, args ...any) (*sqlmini.Result, error)) (int, error) {
	res, err := exec(`SELECT count(*) FROM `+core.LeasesTable+`
		WHERE released = FALSE AND expires_at > $now`, sqlmini.Args{"now": time.Now()})
	if err != nil {
		return 0, err
	}
	return int(res.Rows[0][0].Int()), nil
}

// setupSteady: in-database server, a large settled population, tiny
// driver. The op is one no-change renewal of a random client.
func setupSteady(p runParams, tr *tracer) (*instance, error) {
	in := &instance{}
	store, db := localStore(in, tr)
	if err := startServer(in, "drivolution", store, core.WithDefaultLease(time.Hour)); err != nil {
		return in, err
	}
	sum, err := addFirstDriver(in, p)
	if err != nil {
		return in, err
	}
	pop, err := newLeasePop(in, p.cfg.Population)
	if err != nil {
		return in, err
	}
	if err := pop.bootstrap(sum); err != nil {
		return in, err
	}
	in.setupOps = p.cfg.Population
	in.noChangeRenewals = true
	in.op = func(c int, rng *rand.Rand, sp *spanBuf) error {
		return pop.renew(c, pop.pick(c, rng), sp)
	}
	in.check = func() error {
		live, err := liveLeases(db.Exec)
		if err != nil {
			return err
		}
		if live != p.cfg.Population {
			return fmt.Errorf("steady_renew: %d live leases at the end, want %d", live, p.cfg.Population)
		}
		return nil
	}
	return in, nil
}

// setupStorm: in-database server, a settled population, and rounds:
// AddDriver(v+1), then every client renews with its old checksum, is
// offered the new driver and fetches it.
func setupStorm(p runParams, tr *tracer) (*instance, error) {
	in := &instance{}
	store, _ := localStore(in, tr)
	if err := startServer(in, "drivolution", store, core.WithDefaultLease(time.Hour)); err != nil {
		return in, err
	}
	sum, err := addFirstDriver(in, p)
	if err != nil {
		return in, err
	}
	pop, err := newLeasePop(in, p.cfg.Population)
	if err != nil {
		return in, err
	}
	if err := pop.bootstrap(sum); err != nil {
		return in, err
	}
	// Settle: the first renewal acknowledges the driver, so the server
	// drops the blob it staged for the bootstrap.
	if err := pop.eachConn(func(c, i int) error { return pop.renew(c, i, nil) }); err != nil {
		return in, err
	}
	in.setupOps = 2 * p.cfg.Population

	var (
		round    int
		newSum   string
		encSize  int
		before   core.ServerCounters
		order    [conns][]int
		position [conns]int
	)
	in.roundOps = p.cfg.Population / conns
	in.roundsPerRun = p.cfg.Rounds
	in.beginRound = func(rng *rand.Rand) error {
		round++
		img := newImage(dbver.V(1, round, 0), p.cfg.PayloadBytes)
		newSum, encSize = img.Checksum(), len(img.Encode())
		before = in.srv.Counters()
		for c := range order {
			order[c] = order[c][:0]
			for i := c; i < p.cfg.Population; i += conns {
				order[c] = append(order[c], i)
			}
			rng.Shuffle(len(order[c]), func(a, b int) { order[c][a], order[c][b] = order[c][b], order[c][a] })
			position[c] = 0
		}
		start := time.Now()
		_, err := in.srv.AddDriver(img, dbver.FormatImage)
		if tr != nil {
			tr.store.record(spanAddDriver, kindNone, false, start)
		}
		return err
	}
	in.op = func(c int, _ *rand.Rand, sp *spanBuf) error {
		i := order[c][position[c]]
		position[c]++
		sp.begin(spanRequest)
		offer, err := pop.clients[c].Request(pop.renewRequest(i))
		sp.end()
		if err != nil {
			return err
		}
		if offer.LeaseID != pop.lease[i] || !offer.HasDriver || offer.DriverChecksum != newSum {
			return fmt.Errorf("upgrade of %s: unexpected offer %+v", pop.ids[i], offer)
		}
		sp.begin(spanFetch)
		n, err := pop.clients[c].FetchFile(offer.LeaseID)
		sp.end()
		if err != nil {
			return err
		}
		if n != encSize {
			return fmt.Errorf("upgrade of %s: fetched %d bytes, want %d", pop.ids[i], n, encSize)
		}
		pop.sum[i] = newSum
		return nil
	}
	in.endRound = func() error {
		for i, s := range pop.sum {
			if s != newSum {
				return fmt.Errorf("round %d: %s still runs %s", round, pop.ids[i], s)
			}
		}
		// The server counts a transfer after its last frame is sent, so
		// the last client can be done a moment before the counter is.
		after := in.srv.Counters()
		for wait := 0; wait < 1000 && after.Transfers-before.Transfers < int64(p.cfg.Population); wait++ {
			time.Sleep(time.Millisecond) //lint:sleep-ok polls a server-side counter; nothing signals its update
			after = in.srv.Counters()
		}
		if got, want := after.BytesOut-before.BytesOut, int64(p.cfg.Population*encSize); got != want {
			return fmt.Errorf("round %d: %d bytes transferred, want %d", round, got, want)
		}
		if got := after.RenewUpgrades - before.RenewUpgrades; got != int64(p.cfg.Population) {
			return fmt.Errorf("round %d: %d upgrade offers, want %d", round, got, p.cfg.Population)
		}
		return nil
	}
	return in, nil
}

// setupCold: target DBMS + in-database Drivolution server with a
// signing key, a 256 KiB image, 2s leases and a reaper once a second.
// The op is a whole new bootloader: Connect, one query, Close.
func setupCold(p runParams, tr *tracer) (*instance, error) {
	in := &instance{}
	appDB, err := newItemsDB(p.seed, p.cfg.ItemRows)
	if err != nil {
		return in, err
	}
	in.target = dbms.NewServer("prod-db", dbms.WithUser(appUser, appPassword))
	in.target.AddDatabase("prod", appDB)
	if err := in.target.Start("127.0.0.1:0"); err != nil {
		return in, err
	}
	in.deferClose(in.target.Stop)
	appURL := "dbms://" + in.target.Addr() + "/prod"

	keySeed := make([]byte, ed25519.SeedSize)
	rand.New(rand.NewSource(p.seed)).Read(keySeed)
	in.signKey = ed25519.NewKeyFromSeed(keySeed)
	trust := in.signKey.Public().(ed25519.PublicKey)

	store, _ := localStore(in, tr)
	if err := startServer(in, "drivolution", store,
		core.WithDefaultLease(2*time.Second), core.WithSigningKey(in.signKey)); err != nil {
		return in, err
	}
	sum, err := addFirstDriver(in, p)
	if err != nil {
		return in, err
	}

	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	newBootloader := func(id string) *core.Bootloader {
		return core.NewBootloader(benchAPI, benchPlatform, []string{in.srv.Addr()}, rt,
			core.WithCredentials(appUser, appPassword), core.WithTrustKey(trust),
			core.WithDialTimeout(2*time.Second), core.WithClientID(id))
	}

	// The reaper: one sweep a second, as drivolutiond runs it.
	stop := make(chan struct{})
	var reaper sync.WaitGroup
	reaper.Add(1)
	go func() {
		defer reaper.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				start := time.Now()
				_, _ = in.srv.ReapExpiredLeases() // a failed sweep shows as leases the end check finds unreleased
				if tr != nil {
					tr.store.record(spanReap, kindNone, false, start)
				}
			}
		}
	}()
	in.deferClose(func() { close(stop); reaper.Wait() })

	var serial [conns]int
	in.op = func(c int, rng *rand.Rand, sp *spanBuf) error {
		serial[c]++
		bl := newBootloader("boot-" + strconv.Itoa(c) + "-" + strconv.Itoa(serial[c]))
		sp.begin(spanConnect)
		conn, err := bl.Connect(appURL, nil)
		sp.end()
		if err != nil {
			bl.Close()
			return err
		}
		sp.begin(spanQuery)
		err = queryItem(conn, p.seed, 1+rng.Intn(p.cfg.ItemRows))
		sp.end()
		if err == nil && bl.CurrentChecksum() != sum {
			err = fmt.Errorf("bootloader runs %s, AddDriver stored %s", bl.CurrentChecksum(), sum)
		}
		sp.begin(spanClose)
		_ = conn.Close()
		bl.Close()
		sp.end()
		return err
	}
	// One bootstrap proves the stack before anything is timed.
	if err := in.op(0, rand.New(rand.NewSource(p.seed)), nil); err != nil {
		return in, fmt.Errorf("cold_bootstrap set-up probe: %w", err)
	}
	in.setupOps = 1

	legacy := dbms.NewNativeDriver(dbver.V(1, 0, 0), 1)
	props := client.Props{"user": appUser, "password": appPassword}
	in.legacyConnect = func() (client.Conn, error) { return legacy.Connect(appURL, props) }
	installed := newBootloader("installed")
	in.deferClose(installed.Close)
	in.installedConnect = func() (client.Conn, error) { return installed.Connect(appURL, nil) }

	in.check = func() error {
		ctr := in.srv.Counters()
		if ctr.Transfers < ctr.LeasesGranted-1 || ctr.ErrorsSent != 0 {
			return fmt.Errorf("cold_bootstrap: %d leases granted, %d transfers, %d errors sent",
				ctr.LeasesGranted, ctr.Transfers, ctr.ErrorsSent)
		}
		return nil
	}
	return in, nil
}

// setupExternal: the Figure 2 deployment. A legacy DBMS holds the
// application database and the Drivolution schema; the Drivolution
// server reaches the schema through ConnStore over a protocol-v2
// session. The op mix is 80% renewal, 10% discover, 10% application
// query through a bootloader-loaded driver.
func setupExternal(p runParams, tr *tracer) (*instance, error) {
	in := &instance{}
	appDB, err := newItemsDB(p.seed, p.cfg.ItemRows)
	if err != nil {
		return in, err
	}
	metaDB := sqlmini.NewDB()
	in.target = dbms.NewServer("legacy-db",
		dbms.WithUser(appUser, appPassword), dbms.WithUser("drivolution", "svc-pw"))
	in.target.AddDatabase("prod", appDB)
	in.target.AddDatabase("meta", metaDB)
	if err := in.target.Start("127.0.0.1:0"); err != nil {
		return in, err
	}
	in.deferClose(in.target.Stop)
	appURL := "dbms://" + in.target.Addr() + "/prod"
	metaURL := "dbms://" + in.target.Addr() + "/meta"

	storeDriver := dbms.NewNativeDriver(dbver.V(1, 0, 0), 2)
	in.connStore = core.NewConnStore(func() (client.Conn, error) {
		return storeDriver.Connect(metaURL, client.Props{"user": "drivolution", "password": "svc-pw"})
	})
	in.deferClose(in.connStore.Close)
	var store core.Store = in.connStore
	if tr != nil {
		in.probe = newStoreProbe(tr.store)
		store = &timedConn{ConnStore: in.connStore, p: in.probe}
	}
	if err := startServer(in, "external-drivolution", store, core.WithDefaultLease(time.Hour)); err != nil {
		return in, err
	}
	sum, err := addFirstDriver(in, p)
	if err != nil {
		return in, err
	}
	pop, err := newLeasePop(in, p.cfg.Population)
	if err != nil {
		return in, err
	}
	if err := pop.bootstrap(sum); err != nil {
		return in, err
	}
	in.setupOps = p.cfg.Population + conns
	in.noChangeRenewals = true

	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	var appConn [conns]client.Conn
	var loaders [conns]*core.Bootloader
	for c := range appConn {
		bl := core.NewBootloader(benchAPI, benchPlatform, []string{in.srv.Addr()}, rt,
			core.WithCredentials(appUser, appPassword), core.WithDialTimeout(2*time.Second),
			core.WithClientID("app-"+strconv.Itoa(c)))
		in.deferClose(bl.Close)
		conn, err := bl.Connect(appURL, nil)
		if err != nil {
			return in, fmt.Errorf("external_mixed application bootloader: %w", err)
		}
		loaders[c], appConn[c] = bl, conn
	}
	in.op = func(c int, rng *rand.Rand, sp *spanBuf) error {
		switch kind := rng.Intn(10); {
		case kind < 8:
			return pop.renew(c, pop.pick(c, rng), sp)
		case kind == 8:
			i := pop.pick(c, rng)
			sp.begin(spanDiscover)
			offer, err := pop.clients[c].Discover(baseRequest(pop.ids[i]))
			sp.end()
			if err != nil {
				return err
			}
			if offer.DriverChecksum != pop.sum[i] {
				return fmt.Errorf("discover for %s offered %s", pop.ids[i], offer.DriverChecksum)
			}
			return nil
		default:
			sp.begin(spanQuery)
			err := queryItem(appConn[c], p.seed, 1+rng.Intn(p.cfg.ItemRows))
			sp.end()
			return err
		}
	}
	legacy := dbms.NewNativeDriver(dbver.V(1, 0, 0), 1)
	props := client.Props{"user": appUser, "password": appPassword}
	in.legacyConnect = func() (client.Conn, error) { return legacy.Connect(appURL, props) }
	in.installedConnect = func() (client.Conn, error) { return loaders[0].Connect(appURL, nil) }

	in.check = func() error {
		live, err := liveLeases(metaDB.Exec)
		if err != nil {
			return err
		}
		if want := p.cfg.Population + conns; live != want {
			return fmt.Errorf("external_mixed: %d live lease rows in meta, want %d", live, want)
		}
		return nil
	}
	return in, nil
}

// setupFor dispatches on the workload name.
func setupFor(p runParams, tr *tracer) (*instance, error) {
	var (
		in  *instance
		err error
	)
	switch p.cfg.Name {
	case "steady_renew":
		in, err = setupSteady(p, tr)
	case "cold_bootstrap":
		in, err = setupCold(p, tr)
	case "upgrade_storm":
		in, err = setupStorm(p, tr)
	case "external_mixed":
		in, err = setupExternal(p, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q", p.cfg.Name)
	}
	if err != nil {
		if in != nil {
			in.closeAll()
		}
		return nil, fmt.Errorf("%s set-up: %w", p.cfg.Name, err)
	}
	return in, nil
}
