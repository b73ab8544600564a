package sequoia

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// Backend is one database replica behind a controller, reached through a
// conventional driver — or through a Drivolution bootloader (Figure 6),
// since both implement client.Driver.
type Backend struct {
	Name   string
	URL    string
	Props  client.Props
	Driver client.Driver

	mu          sync.Mutex
	enabled     bool
	conn        client.Conn // applier connection (replication + reads)
	lastApplied uint64      // group journal position
}

func (b *Backend) connLocked() (client.Conn, error) {
	if b.conn != nil {
		if b.conn.Ping() == nil {
			return b.conn, nil
		}
		_ = b.conn.Close()
		b.conn = nil
	}
	c, err := b.Driver.Connect(b.URL, b.Props)
	if err != nil {
		return nil, err
	}
	b.conn = c
	return c, nil
}

// exec runs one statement on the backend's applier connection.
func (b *Backend) exec(m execMsg) (*client.Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, err := b.connLocked()
	if err != nil {
		return nil, err
	}
	res, err := c.Exec(m.SQL, m.Args)
	if err != nil && c.Ping() != nil {
		// Dead connection: redial once.
		_ = c.Close()
		b.conn = nil
		c, derr := b.connLocked()
		if derr != nil {
			return nil, err
		}
		return c.Exec(m.SQL, m.Args)
	}
	return res, err
}

// execMsg is one statement a driver sent: its SQL and its argument
// block, kept in the bytes the driver wrote, which every backend and
// every journal replay receive as they stand (sqlmini.ArgBlock).
type execMsg struct {
	SQL  string
	Args sqlmini.ArgBlock
}

// decode reads a msgExec payload, the dbms statement payload: the SQL,
// then the argument block, read in full by the shared decoder, so a
// malformed block, or one that mixes named and positional values, is
// refused before any backend sees it. The block is copied out of b.
func (m *execMsg) decode(b []byte) error {
	d := wire.NewDecoder(b)
	m.SQL = d.String()
	block := b[len(b)-d.Remaining():]
	var ps sqlmini.Params
	if err := sqlmini.DecodeArgs(d, sqlmini.Parsed{}, &ps); err != nil {
		return err
	}
	m.Args = bytes.Clone(block[:len(block)-d.Remaining()])
	return nil
}

// Group totally orders writes across a set of controllers and keeps the
// write journal used to resynchronize re-enabled backends around a
// checkpoint (§5.3.1).
type Group struct {
	mu      sync.Mutex
	members []*Controller
	journal []execMsg
	seq     uint64
}

// NewGroup creates an empty controller group.
func NewGroup() *Group { return &Group{} }

// Seq returns the current journal sequence number.
func (g *Group) Seq() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.seq
}

// Controllers returns the current members.
func (g *Group) Controllers() []*Controller {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Controller(nil), g.members...)
}

// broadcastWrite applies m to every enabled backend of every running
// controller, in total order, and journals it. It returns the result
// from the first backend (all replicas execute the same statement).
// Statements that fail on every backend — e.g. a driver-failover retry
// of a write that already committed, hitting its own duplicate key — are
// NOT journaled, so journal replay stays clean for resynchronization.
func (g *Group) broadcastWrite(m execMsg) (*client.Result, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	seq := g.seq

	var first *client.Result
	var firstErr error
	applied := 0
	for _, ctrl := range g.members {
		if !ctrl.running() {
			continue
		}
		for _, b := range ctrl.enabledBackends() {
			res, err := b.exec(m)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("sequoia: backend %s: %w", b.Name, err)
				}
				continue
			}
			b.mu.Lock()
			b.lastApplied = seq
			b.mu.Unlock()
			if first == nil {
				first = res
			}
			applied++
		}
	}
	if applied == 0 {
		g.seq-- // nothing applied: rewind, don't journal
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, errors.New("sequoia: no enabled backends in group")
	}
	g.journal = append(g.journal, m)
	return first, nil
}

// replaySince returns journal entries after position pos.
func (g *Group) replaySince(pos uint64) []execMsg {
	g.mu.Lock()
	defer g.mu.Unlock()
	if pos >= g.seq {
		return nil
	}
	// journal[i] has sequence i+1.
	out := make([]execMsg, g.seq-pos)
	copy(out, g.journal[pos:])
	return out
}

// Controller is one Sequoia controller: a TCP endpoint speaking the
// Sequoia protocol, fronting its backends, and participating in the
// group's write replication.
type Controller struct {
	name     string
	group    *Group
	users    map[string]string
	database string // virtual database name served to clients

	mu       sync.Mutex
	backends []*Backend
	rr       int
	ln       net.Listener
	stopped  bool
	sessions map[*wire.Conn]struct{}

	wg sync.WaitGroup
}

// ControllerOption configures a Controller.
type ControllerOption func(*Controller)

// WithControllerUser adds an authentication entry.
func WithControllerUser(user, password string) ControllerOption {
	return func(c *Controller) { c.users[user] = password }
}

// NewController creates a controller serving the named virtual database
// and joins it to the group.
func NewController(name, database string, group *Group, opts ...ControllerOption) *Controller {
	c := &Controller{
		name:     name,
		group:    group,
		users:    map[string]string{},
		database: database,
		sessions: map[*wire.Conn]struct{}{},
	}
	for _, o := range opts {
		o(c)
	}
	group.mu.Lock()
	group.members = append(group.members, c)
	group.mu.Unlock()
	return c
}

// Name returns the controller name.
func (c *Controller) Name() string { return c.name }

// AddBackend registers a backend replica. New backends start disabled;
// call EnableBackend to bring them in (resynchronizing from the journal).
func (c *Controller) AddBackend(b *Backend) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backends = append(c.backends, b)
}

// Backends lists backend names and enabled state.
func (c *Controller) Backends() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool, len(c.backends))
	for _, b := range c.backends {
		b.mu.Lock()
		out[b.Name] = b.enabled
		b.mu.Unlock()
	}
	return out
}

func (c *Controller) backend(name string) *Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.backends {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// EnableBackend brings a backend online, replaying the group journal
// from the backend's checkpoint first (the paper's "re-enabled and
// resynchronized from its checkpoint by the Sequoia controller"). The
// bulk of the replay runs without blocking the write stream; the final
// catch-up and the enable flip happen atomically under the group's write
// order so no statement is missed or applied twice.
func (c *Controller) EnableBackend(name string) error {
	b := c.backend(name)
	if b == nil {
		return fmt.Errorf("sequoia: no backend %q on %s", name, c.name)
	}
	// Phase 1: bulk catch-up while writes continue elsewhere. Rounds are
	// bounded: if write ingress keeps pace with the replay (which would
	// otherwise livelock this loop), the remainder is finished in phase
	// 2 under the group lock, briefly pausing writers.
	for round := 0; round < 64; round++ {
		b.mu.Lock()
		pos := b.lastApplied
		b.mu.Unlock()
		entries := c.group.replaySince(pos)
		if len(entries) == 0 {
			break
		}
		for _, m := range entries {
			if _, err := b.exec(m); err != nil {
				return fmt.Errorf("sequoia: resync backend %s: %w", name, err)
			}
			pos++
			b.mu.Lock()
			b.lastApplied = pos
			b.mu.Unlock()
		}
	}
	// Phase 2: final catch-up + enable, atomic w.r.t. broadcastWrite.
	g := c.group
	g.mu.Lock()
	defer g.mu.Unlock()
	b.mu.Lock()
	pos := b.lastApplied
	b.mu.Unlock()
	for i := pos; i < g.seq; i++ {
		if _, err := b.exec(g.journal[i]); err != nil {
			return fmt.Errorf("sequoia: resync backend %s: %w", name, err)
		}
		b.mu.Lock()
		b.lastApplied = i + 1
		b.mu.Unlock()
	}
	b.mu.Lock()
	b.enabled = true
	b.mu.Unlock()
	return nil
}

func (c *Controller) enabledBackends() []*Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Backend, 0, len(c.backends))
	for _, b := range c.backends {
		b.mu.Lock()
		if b.enabled {
			out = append(out, b)
		}
		b.mu.Unlock()
	}
	return out
}

// pickRead round-robins across enabled backends.
func (c *Controller) pickRead() (*Backend, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.backends)
	for i := 0; i < n; i++ {
		b := c.backends[(c.rr+i)%n]
		b.mu.Lock()
		ok := b.enabled
		b.mu.Unlock()
		if ok {
			c.rr = (c.rr + i + 1) % n
			return b, nil
		}
	}
	return nil, errors.New("sequoia: no enabled backends")
}

func (c *Controller) running() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ln != nil && !c.stopped
}

// Start listens for Sequoia driver connections.
func (c *Controller) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("sequoia: listen: %w", err)
	}
	c.mu.Lock()
	if c.ln != nil {
		c.mu.Unlock()
		_ = ln.Close()
		return fmt.Errorf("sequoia: controller %s already started", c.name)
	}
	c.ln = ln
	c.stopped = false
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serveConn(nc)
			}()
		}
	}()
	return nil
}

// Addr returns the listen address.
func (c *Controller) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Stop closes the listener and every client session, and disables the
// controller's backends around a consistent checkpoint (their journal
// positions), so a later Start + EnableBackend resynchronizes them
// exactly — the §5.3.1 maintenance workflow. Controllers can thus be
// stopped, upgraded, and restarted one-by-one while drivers fail over.
func (c *Controller) Stop() {
	c.mu.Lock()
	if c.ln != nil {
		_ = c.ln.Close()
		c.ln = nil
	}
	c.stopped = true
	for s := range c.sessions {
		_ = s.Close()
	}
	backends := append([]*Backend(nil), c.backends...)
	c.mu.Unlock()
	for _, b := range backends {
		b.mu.Lock()
		b.enabled = false
		if b.conn != nil {
			_ = b.conn.Close()
			b.conn = nil
		}
		b.mu.Unlock()
	}
	c.wg.Wait()
	c.mu.Lock()
	c.sessions = map[*wire.Conn]struct{}{}
	c.mu.Unlock()
}

func (c *Controller) serveConn(nc net.Conn) {
	conn := wire.NewConn(nc)
	defer conn.Close()
	conn.SetWriteTimeout(faultnet.DefaultWriteTimeout)

	f, err := conn.RecvTimeout(faultnet.DefaultHandshakeTimeout)
	if err != nil || f.Type != msgHello {
		return
	}
	var hello helloMsg
	if err := wire.Unmarshal(f.Payload, &hello); err != nil {
		return
	}
	if hello.ProtocolVersion != protocolVersion {
		refuse(conn, codeProtocolMismatch, fmt.Sprintf("controller %s speaks protocol %d, driver sent %d",
			c.name, protocolVersion, hello.ProtocolVersion))
		return
	}
	if pw, ok := c.users[hello.User]; !ok || pw != hello.Password {
		refuse(conn, codeAuthFailed, "authentication failed")
		return
	}
	if hello.Database != c.database {
		refuse(conn, codeNoDatabase, fmt.Sprintf("controller serves %q, not %q", c.database, hello.Database))
		return
	}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.sessions[conn] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.sessions, conn)
		c.mu.Unlock()
	}()

	if err := conn.Send(msgHelloOK, wire.Marshal(&helloMsg{ProtocolVersion: protocolVersion, Database: c.database})); err != nil {
		return
	}

	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		switch f.Type {
		case msgPing:
			if err := conn.Send(msgPong, nil); err != nil {
				return
			}
		case msgExec:
			var m execMsg
			if err := m.decode(f.Payload); err != nil {
				refuse(conn, codeQueryError, "malformed exec: "+err.Error())
				continue
			}
			res, execErr := c.execute(m)
			if execErr != nil {
				refuse(conn, codeQueryError, execErr.Error())
				continue
			}
			if err := conn.Send(msgResult, wire.Marshal(res)); err != nil {
				return
			}
		default:
			refuse(conn, codeQueryError, fmt.Sprintf("unexpected frame 0x%04x", f.Type))
		}
	}
}

// refuse answers the frame in flight with msgError: the one way the
// controller turns a request down. A send that fails surfaces at the
// session's next receive.
func refuse(conn *wire.Conn, code uint16, msg string) {
	_ = conn.Send(msgError, wire.Marshal(&errorMsg{Code: code, Message: msg}))
}

// execute routes one statement: writes through the group's total order,
// reads to a round-robin backend. Explicit transactions are not
// supported through the controller (replicated-autocommit substrate;
// see package doc).
func (c *Controller) execute(m execMsg) (*client.Result, error) {
	mutating, err := isMutating(m.SQL)
	if err != nil {
		return nil, err
	}
	if mutating {
		return c.group.broadcastWrite(m)
	}
	b, err := c.pickRead()
	if err != nil {
		return nil, err
	}
	return b.exec(m)
}

func isMutating(sql string) (bool, error) {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return false, err
	}
	switch st.(type) {
	case *sqlmini.InsertStmt, *sqlmini.UpdateStmt, *sqlmini.DeleteStmt,
		*sqlmini.CreateTableStmt, *sqlmini.CreateIndexStmt:
		return true, nil
	case *sqlmini.BeginStmt, *sqlmini.CommitStmt, *sqlmini.RollbackStmt:
		return false, errors.New("sequoia: explicit transactions are not supported through the controller")
	default:
		return false, nil
	}
}
