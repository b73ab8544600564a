package sequoia

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// frameLog is a recording proxy's memory: the last payload seen of
// each frame type, in either direction.
type frameLog struct {
	mu   sync.Mutex
	last map[uint16][]byte
}

func (l *frameLog) payload(typ uint16) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last[typ]
}

// recordFrames starts a proxy to target that forwards every frame both
// ways and keeps a copy of each payload, and returns its address.
func recordFrames(t *testing.T, target string) (string, *frameLog) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	log := &frameLog{last: map[uint16][]byte{}}
	pump := func(dst, src net.Conn) {
		defer dst.Close()
		defer src.Close()
		for {
			f, err := wire.ReadFrame(src)
			if err != nil {
				return
			}
			log.mu.Lock()
			log.last[f.Type] = bytes.Clone(f.Payload)
			log.mu.Unlock()
			if wire.WriteFrame(dst, f) != nil {
				return
			}
		}
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				nc.Close()
				return
			}
			go pump(up, nc)
			go pump(nc, up)
		}
	}()
	return ln.Addr().String(), log
}

// TestSequoiaPayloadsAreDbmsPayloads: a statement and its result cross
// a controller session in exactly the bytes they cross a dbms session
// in — only the frame types differ. The same statements go to one
// backend directly and through a controller in front of it, and each
// exec and result payload on the controller session must equal its
// dbms counterpart.
func TestSequoiaPayloadsAreDbmsPayloads(t *testing.T) {
	const dbmsExec, dbmsResult = 0x0103, 0x0104 // the dbms protocol's msgExec and msgResult
	cl := newCluster(t, 1, 1)
	dbAddr, dbLog := recordFrames(t, cl.backends[0].Addr())
	seqAddr, seqLog := recordFrames(t, cl.controllers[0].Addr())
	direct, err := dbms.NewNativeDriver(dbver.V(1, 0, 0), 1).Connect("dbms://"+dbAddr+"/shard",
		client.Props{"user": "seq", "password": "seq-pw"})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	viaController, err := NewDriver(dbver.V(1, 0, 0), 1).Connect("sequoia://"+seqAddr+"/vdb",
		client.Props{"user": "app", "password": "app-pw"})
	if err != nil {
		t.Fatal(err)
	}
	defer viaController.Close()
	if _, err := viaController.Exec("INSERT INTO kv (k, v) VALUES ('a', 1), ('b', NULL), ('c', 3)"); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		sql  string
		args []any
	}{
		{"named", "SELECT k, v FROM kv WHERE k = $key OR v = $val ORDER BY k",
			[]any{sqlmini.Args{"val": 3, "key": "a"}}},
		{"positional, NULL", "SELECT k, v FROM kv WHERE k = ? OR k = ? ORDER BY k", []any{"b", "c"}},
		{"empty, affected", "UPDATE kv SET v = v WHERE k <> 'none'", nil},
	} {
		want, err := direct.Exec(tc.sql, tc.args...)
		if err != nil {
			t.Fatalf("%s: direct: %v", tc.name, err)
		}
		got, err := viaController.Exec(tc.sql, tc.args...)
		if err != nil {
			t.Fatalf("%s: through the controller: %v", tc.name, err)
		}
		if len(got.Rows) != len(want.Rows) || got.Affected != want.Affected {
			t.Fatalf("%s: %d rows, %d affected through the controller; %d, %d direct",
				tc.name, len(got.Rows), got.Affected, len(want.Rows), want.Affected)
		}
		if d, s := dbLog.payload(dbmsExec), seqLog.payload(msgExec); len(d) == 0 || !bytes.Equal(d, s) {
			t.Errorf("%s: exec payloads differ:\n dbms    %x\n sequoia %x", tc.name, d, s)
		}
		if d, s := dbLog.payload(dbmsResult), seqLog.payload(msgResult); len(d) == 0 || !bytes.Equal(d, s) {
			t.Errorf("%s: result payloads differ:\n dbms    %x\n sequoia %x", tc.name, d, s)
		}
	}
}

// TestControllerRefusesMixedArguments: an argument block that carries
// both named and positional values is refused as the dbms server
// refuses it — neither half is dropped, nothing executes, nothing is
// journaled — and the session goes on.
func TestControllerRefusesMixedArguments(t *testing.T) {
	cl := newCluster(t, 1, 1)
	conn, err := wire.Dial(cl.controllers[0].Addr(), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := helloMsg{ProtocolVersion: protocolVersion, Database: "vdb", User: "app", Password: "app-pw"}
	if err := conn.Send(msgHello, wire.Marshal(&hello)); err != nil {
		t.Fatal(err)
	}
	if f, err := conn.Recv(); err != nil || f.Type != msgHelloOK {
		t.Fatalf("hello: frame 0x%04x, %v", f.Type, err)
	}
	e := wire.NewEncoder(128)
	e.String("INSERT INTO kv (k, v) VALUES ($k, $v)")
	e.Uint32(2) // named: k = 'x', v = 1
	e.String("k")
	sqlmini.EncodeValue(e, sqlmini.NewString("x"))
	e.String("v")
	sqlmini.EncodeValue(e, sqlmini.NewInt(1))
	e.Uint32(1) // and one positional value
	sqlmini.EncodeValue(e, sqlmini.NewInt(99))
	if err := conn.Send(msgExec, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var em errorMsg
	if f.Type != msgError || wire.Unmarshal(f.Payload, &em) != nil || em.Code != codeQueryError {
		t.Fatalf("a mixed argument block was answered with frame 0x%04x %+v; want a query error", f.Type, em)
	}
	res, err := cl.backends[0].Database("shard").Exec("SELECT k FROM kv")
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("the backend holds %+v (%v); the statement must not run", res, err)
	}
	if seq := cl.group.Seq(); seq != 0 {
		t.Fatalf("journal at %d; the statement must not be journaled", seq)
	}
	if err := conn.Send(msgPing, nil); err != nil {
		t.Fatal(err)
	}
	if f, err := conn.Recv(); err != nil || f.Type != msgPong {
		t.Fatalf("ping after the refusal: frame 0x%04x, %v", f.Type, err)
	}
}
