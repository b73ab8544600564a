package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// fileChunk is one FILE_DATA frame payload as the protocol defines it,
// built the way every other message is — field by field through
// wire.Encoder. Production code never joins head and data in one
// buffer (fileChunkHead); tests script frames with this and, by
// round-tripping through decodeFileChunk, hold the head to the joined
// encoding.
type fileChunk struct {
	Offset uint32
	Total  uint32
	Last   bool
	Data   []byte
}

func (c fileChunk) encode() []byte {
	e := wire.NewEncoder(fileChunkHeadLen + len(c.Data))
	e.Uint32(c.Offset)
	e.Uint32(c.Total)
	e.Bool(c.Last)
	e.Bytes32(c.Data)
	return e.Bytes()
}

func decodeFileChunk(b []byte) (fileChunk, error) {
	if len(b) < fileChunkHeadLen {
		return fileChunk{}, fmt.Errorf("FILE_DATA payload of %d bytes", len(b))
	}
	var h fileChunkHead
	if err := wire.Unmarshal(b[:fileChunkHeadLen], &h); err != nil {
		return fileChunk{}, err
	}
	if int(h.Len) != len(b)-fileChunkHeadLen {
		return fileChunk{}, fmt.Errorf("FILE_DATA declares %d data bytes, carries %d", h.Len, len(b)-fileChunkHeadLen)
	}
	return fileChunk{Offset: h.Offset, Total: h.Total, Last: h.Last, Data: b[fileChunkHeadLen:]}, nil
}

// fixture wires a complete vertical slice: a target DBMS (the database
// applications actually query), a Drivolution server (standalone, local
// store), and a driver runtime with the dbms factory registered.
type fixture struct {
	target *dbms.Server // the application database
	drv    *Server      // the Drivolution server
	rt     *driverimg.Runtime
}

// newFixture starts a target DBMS named "prod" (protocol version
// targetProto) seeded with an items table, and a Drivolution server with
// the given options.
func newFixture(t *testing.T, targetProto uint16, opts ...ServerOption) *fixture {
	t.Helper()

	appDB := sqlmini.NewDB()
	appDB.MustExec("CREATE TABLE items (id INTEGER NOT NULL PRIMARY KEY, name VARCHAR)")
	appDB.MustExec("INSERT INTO items (id, name) VALUES (1, 'widget'), (2, 'gadget')")
	target := dbms.NewServer("prod-db",
		dbms.WithUser("app", "app-pw"),
		dbms.WithProtocolVersion(targetProto))
	target.AddDatabase("prod", appDB)
	if err := target.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(target.Stop)

	store := NewLocalStore(sqlmini.NewDB())
	srv, err := NewServer("drivolution-1", store, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	return &fixture{target: target, drv: srv, rt: rt}
}

// driverImage builds a dbms-native driver image for the fixture's target
// server.
func (f *fixture) driverImage(version dbver.Version, proto uint16, payloadSize int) *driverimg.Image {
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            dbms.DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         version,
			ProtocolVersion: proto,
			Options:         map[string]string{"user": "app", "password": "app-pw"},
			Packages:        []string{"core"},
		},
		Payload: payload,
	}
}

// addDriver inserts a driver image and fails the test on error.
func (f *fixture) addDriver(t *testing.T, img *driverimg.Image) int64 {
	t.Helper()
	id, err := f.drv.AddDriver(img, dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// bootloader builds a JDBC/linux bootloader against the fixture's
// Drivolution server.
func (f *fixture) bootloader(t *testing.T, opts ...BootloaderOption) *Bootloader {
	t.Helper()
	all := append([]BootloaderOption{
		WithCredentials("app", "app-pw"),
		WithDialTimeout(2 * time.Second),
		WithRetryInterval(20 * time.Millisecond),
	}, opts...)
	b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{f.drv.Addr()}, f.rt, all...)
	t.Cleanup(b.Close)
	return b
}

// appURL is the connection URL applications pass to the bootloader.
func (f *fixture) appURL() string { return "dbms://" + f.target.Addr() + "/prod" }

// mustConnect opens a connection through the bootloader.
func mustConnect(t *testing.T, b *Bootloader, url string) client.Conn {
	t.Helper()
	c, err := b.Connect(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}
