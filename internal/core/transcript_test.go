package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// Transcripts are lease-protocol sessions recorded from an earlier
// lease client, kept under testdata/transcripts: the frames the client
// sent ("> " lines) and the frames the server answered ("< " lines),
// each one whole frame in hex, header included, plus the admin step a
// session runs between frames ("! add-driver <version>"). The paper's
// bootloader outlives the servers it talks to (§3, §4.1.2), so today's
// server must answer an earlier client's bytes exactly as it did when
// they were recorded. A layout change adds a transcript and never
// edits one: -transcript.record writes only the transcripts that are
// missing.
var recordTranscripts = flag.Bool("transcript.record", false,
	"record the lease-protocol transcripts missing from testdata/transcripts")

const transcriptDir = "testdata/transcripts"

// transcriptScript drives one recorded session through a LeaseClient.
type transcriptScript struct {
	name  string
	about string
	// noCaps: the client predates the push capability, so its first
	// REQUEST carries no capability byte and every file it receives it
	// asks for with FILE_REQUEST.
	noCaps bool
	run    func(s *transcriptSession) error
}

// transcriptRequest is what the recorded clients ask for, as a
// bootloader builds it.
func transcriptRequest() Request {
	req := catalogRequest()
	req.Password = "app-pw"
	return req
}

var transcriptScripts = []transcriptScript{
	{name: "bootstrap", about: "bootstrap: REQUEST with the push capability -> OFFER, FILE_REQUEST -> FILE_DATA",
		run: func(s *transcriptSession) error {
			o, err := s.c.Request(transcriptRequest())
			if err != nil {
				return err
			}
			_, err = s.c.FetchFile(o.LeaseID)
			return err
		}},
	{name: "discover", about: "DISCOVER with the push capability -> OFFER, no lease",
		run: func(s *transcriptSession) error {
			_, err := s.c.Discover(transcriptRequest())
			return err
		}},
	{name: "renewal-no-change", about: "bootstrap, then a renewal naming the running driver -> OFFER without a driver",
		run: func(s *transcriptSession) error {
			req := transcriptRequest()
			o, err := s.c.Request(req)
			if err != nil {
				return err
			}
			if _, err := s.c.FetchFile(o.LeaseID); err != nil {
				return err
			}
			req.LeaseID, req.CurrentChecksum = o.LeaseID, o.DriverChecksum
			_, err = s.c.Request(req)
			return err
		}},
	{name: "upgrade-push", about: "bootstrap, an admin adds 2.0.0, then a renewal -> OFFER with FILE_DATA pushed behind it",
		run: func(s *transcriptSession) error {
			req := transcriptRequest()
			o, err := s.c.Request(req)
			if err != nil {
				return err
			}
			if _, err := s.c.FetchFile(o.LeaseID); err != nil {
				return err
			}
			if err := s.addDriver(dbver.V(2, 0, 0)); err != nil {
				return err
			}
			req.LeaseID, req.CurrentChecksum = o.LeaseID, o.DriverChecksum
			up, err := s.c.Request(req)
			if err != nil {
				return err
			}
			_, err = s.c.FetchFile(up.LeaseID)
			return err
		}},
	{name: "release", about: "bootstrap, then RELEASE -> RELEASE_OK",
		run: func(s *transcriptSession) error {
			o, err := s.c.Request(transcriptRequest())
			if err != nil {
				return err
			}
			return s.c.Release(o.LeaseID)
		}},
	{name: "no-capability", noCaps: true,
		about: "a client without the push capability: bootstrap and an upgrade renewal, each file asked for with FILE_REQUEST",
		run: func(s *transcriptSession) error {
			req := transcriptRequest()
			o, err := s.c.Request(req)
			if err != nil {
				return err
			}
			if _, err := s.c.FetchFile(o.LeaseID); err != nil {
				return err
			}
			if err := s.addDriver(dbver.V(2, 0, 0)); err != nil {
				return err
			}
			req.LeaseID, req.CurrentChecksum = o.LeaseID, o.DriverChecksum
			up, err := s.c.Request(req)
			if err != nil {
				return err
			}
			_, err = s.c.FetchFile(up.LeaseID)
			return err
		}},
}

// newTranscriptServer is the server every transcript was recorded
// against and is replayed against: a fresh local store holding driver
// 1.0.0, not listening — sessions reach it over net.Pipe.
func newTranscriptServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer("transcript", NewLocalStore(sqlmini.NewDB()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	return srv
}

// serveOnPipe runs one server session over net.Pipe and returns the
// client's end; the session has ended once done is closed.
func serveOnPipe(srv *Server) (client net.Conn, done <-chan struct{}) {
	client, server := net.Pipe()
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		srv.serveConn(server)
	}()
	return client, ch
}

// transcriptSession records one scripted session, frame by frame.
type transcriptSession struct {
	srv      *Server
	c        *LeaseClient
	rc       *recordingConn
	lines    []string
	up, down []byte // recorded bytes not yet cut into whole frames
}

// flush appends the whole frames recorded since the last flush: the
// client's first, then the server's.
func (s *transcriptSession) flush() {
	s.up = append(s.up, s.rc.up.Bytes()...)
	s.down = append(s.down, s.rc.down.Bytes()...)
	s.rc.up.Reset()
	s.rc.down.Reset()
	s.up = s.cut("> ", s.up)
	s.down = s.cut("< ", s.down)
}

func (s *transcriptSession) cut(prefix string, b []byte) []byte {
	for len(b) >= 8 {
		n := 8 + int(binary.BigEndian.Uint32(b[4:8]))
		if len(b) < n {
			break
		}
		s.lines = append(s.lines, prefix+hex.EncodeToString(b[:n]))
		b = b[n:]
	}
	return b
}

func (s *transcriptSession) addDriver(v dbver.Version) error {
	s.flush()
	if _, err := s.srv.AddDriver(catalogImage(v), dbver.FormatImage); err != nil {
		return err
	}
	s.lines = append(s.lines, "! add-driver "+v.String())
	return nil
}

// record runs a script against a fresh server and writes its transcript.
func (sc transcriptScript) record(t *testing.T, path string) {
	srv := newTranscriptServer(t)
	nc, done := serveOnPipe(srv)
	s := &transcriptSession{srv: srv, rc: &recordingConn{Conn: nc}}
	s.c = &LeaseClient{conn: wire.NewConn(flushingConn{s.rc, s.flush}), timeout: 5 * time.Second, declared: sc.noCaps}
	if err := sc.run(s); err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	s.flush()
	s.c.Close()
	<-done
	if len(s.up) != 0 || len(s.down) != 0 {
		t.Fatalf("%s: %d client and %d server bytes left over", sc.name, len(s.up), len(s.down))
	}
	out := "# " + sc.about + "\n" + strings.Join(s.lines, "\n") + "\n"
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %s", path)
}

// flushingConn cuts the recording into frames before each client
// write, so a server frame read during one call lands ahead of the
// next client frame.
type flushingConn struct {
	*recordingConn
	flush func()
}

func (c flushingConn) Write(b []byte) (int, error) {
	c.flush()
	return c.recordingConn.Write(b)
}

// TestTranscriptsReplay replays every recorded transcript against
// today's server over net.Pipe: each client frame is written as
// recorded, and each answer must be the recorded frame, byte for byte.
func TestTranscriptsReplay(t *testing.T) {
	for _, sc := range transcriptScripts {
		path := filepath.Join(transcriptDir, sc.name+".txt")
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) && *recordTranscripts {
			if err := os.MkdirAll(transcriptDir, 0o755); err != nil {
				t.Fatal(err)
			}
			sc.record(t, path)
		}
		t.Run(sc.name, func(t *testing.T) { replayTranscript(t, path) })
	}
}

func replayTranscript(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := newTranscriptServer(t)
	nc, done := serveOnPipe(srv)
	defer func() {
		nc.Close()
		<-done
	}()
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	frames := 0
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || text[0] == '#' {
			continue
		}
		op, arg, _ := strings.Cut(text, " ")
		switch op {
		case ">", "<":
			want, err := hex.DecodeString(arg)
			if err != nil {
				t.Fatalf("line %d: %v", line, err)
			}
			frames++
			if op == ">" {
				if _, err := nc.Write(want); err != nil {
					t.Fatalf("line %d: write: %v", line, err)
				}
				continue
			}
			got := make([]byte, len(want))
			if _, err := io.ReadFull(nc, got); err != nil {
				t.Fatalf("line %d: read the answer: %v", line, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("line %d: the server's answer changed:\n got  %x\n want %x", line, got, want)
			}
		case "!":
			v, ok := strings.CutPrefix(arg, "add-driver ")
			ver, err := dbver.ParseVersion(v)
			if !ok || err != nil {
				t.Fatalf("line %d: unknown step %q", line, text)
			}
			if _, err := srv.AddDriver(catalogImage(ver), dbver.FormatImage); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("line %d: unknown line %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatalf("%s holds no frames", path)
	}
}
