package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. The harness records every span from outside the
// program: around the calls it makes into a module's exported
// functions, or around the calls the server makes into the store the
// harness handed it.
const (
	spanOp         = "bench.op"                // one timed op, harness included
	spanRequest    = "core.client.request"     // LeaseClient.Request
	spanDiscover   = "core.client.discover"    // LeaseClient.Discover
	spanFetch      = "core.client.fetch"       // LeaseClient.FetchFile
	spanConnect    = "core.bootloader.connect" // Bootloader.Connect
	spanQuery      = "dbms.query"              // application query on a loaded driver's connection
	spanClose      = "core.bootloader.close"   // conn.Close + Bootloader.Close
	spanStore      = "core.store.exec"         // one statement, batch or tx crossing the Store boundary
	spanReap       = "core.reap.sweep"         // ReapExpiredLeases
	spanAddDriver  = "core.admin.add_driver"   // AddDriver
	noParent       = int32(-1)
	storeConnIndex = -1 // "conn" of spans recorded on server goroutines
)

// span is one timed interval. op identifies the timed operation the
// span belongs to (0: none, e.g. a reaper sweep); parent indexes the
// same buffer, or is noParent for a root.
type span struct {
	op     uint64
	name   string
	parent int32
	start  int64 // ns since tracer.base
	end    int64
	// Store spans only: the statement's kind, and whether it touches
	// the driver catalog tables.
	kind    stmtKind
	catalog bool
}

// spanBuf is one generator connection's span buffer. It is used by
// that connection's goroutine only. A nil *spanBuf records nothing,
// which is the untraced run: no wrapper, no buffer, no clock reads.
type spanBuf struct {
	base  time.Time
	spans []span
	open  []int32 // stack of open span indexes
	op    uint64
	conn  int
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.base)) }

// begin opens a span under the innermost open one.
func (b *spanBuf) begin(name string) {
	if b == nil {
		return
	}
	parent := noParent
	if n := len(b.open); n > 0 {
		parent = b.open[n-1]
	}
	b.open = append(b.open, int32(len(b.spans)))
	b.spans = append(b.spans, span{op: b.op, name: name, parent: parent, start: b.now()})
}

// end closes the innermost open span.
func (b *spanBuf) end() {
	if b == nil {
		return
	}
	n := len(b.open)
	b.spans[b.open[n-1]].end = b.now()
	b.open = b.open[:n-1]
}

// beginOp starts a new timed op and opens its root span.
func (b *spanBuf) beginOp(id uint64) {
	if b == nil {
		return
	}
	b.op = id
	b.begin(spanOp)
}

// storeSpans collects the spans recorded on server goroutines (the
// timing store, the reaper, AddDriver). Those goroutines do not know
// which client op they serve; attribute resolves that afterwards.
type storeSpans struct {
	base time.Time
	mu   sync.Mutex
	list []span
}

// record closes a span that began at start.
func (s *storeSpans) record(name string, kind stmtKind, catalog bool, start time.Time) {
	end := time.Now()
	sp := span{name: name, parent: noParent, kind: kind, catalog: catalog,
		start: int64(start.Sub(s.base)), end: int64(end.Sub(s.base))}
	s.mu.Lock()
	s.list = append(s.list, sp)
	s.mu.Unlock()
}

// tracer owns every buffer of one traced run.
type tracer struct {
	base  time.Time
	conns []*spanBuf
	store *storeSpans
}

func newTracer(n int) *tracer {
	base := time.Now()
	t := &tracer{base: base, store: &storeSpans{base: base}}
	for c := 0; c < n; c++ {
		t.conns = append(t.conns, &spanBuf{base: base, conn: c})
	}
	return t
}

// now is the tracer's clock: nanoseconds since its base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// buf is nil-safe: an untraced run has a nil tracer and every
// connection gets a nil buffer.
func (t *tracer) buf(c int) *spanBuf {
	if t == nil {
		return nil
	}
	return t.conns[c]
}

// opTree is one op's spans as a tree, for self times.
type opTree struct {
	root     span
	children map[int32][]int32 // span index -> indexes of direct children
	spans    []span            // the op's spans; indexes are local
}

// selfTimes returns each span's duration minus the part its direct
// children cover, summed per span name. Children of one parent never
// overlap here (one goroutine, one request at a time), so the sum of
// all self times equals the root's duration.
func (t *opTree) selfTimes() map[string]int64 {
	out := make(map[string]int64)
	for i, sp := range t.spans {
		self := sp.end - sp.start
		for _, c := range t.children[int32(i)] {
			self -= t.spans[c].end - t.spans[c].start
		}
		out[sp.name] += self
	}
	return out
}

// attribute builds op trees for the ops of one connection inside
// [from, to), adopting the store spans that fall inside a client span
// of that op. It is exact only while one connection is in flight (the
// solo phase): then a store span inside a request span can belong to
// nothing else. Store spans go under the innermost client span that
// contains them.
func (t *tracer) attribute(conn int, from, to int64) []opTree {
	b := t.conns[conn]
	var trees []opTree
	byOp := make(map[uint64]int) // op id -> index in trees
	local := make(map[int32]int32)
	for i, sp := range b.spans {
		if sp.start < from || sp.end > to || sp.end == 0 {
			continue
		}
		ti, ok := byOp[sp.op]
		if !ok {
			if sp.parent != noParent {
				continue // op began before the window
			}
			ti = len(trees)
			byOp[sp.op] = ti
			trees = append(trees, opTree{root: sp, children: make(map[int32][]int32)})
		}
		tr := &trees[ti]
		li := int32(len(tr.spans))
		local[int32(i)] = li
		cp := sp
		if sp.parent != noParent {
			cp.parent = local[sp.parent]
			tr.children[cp.parent] = append(tr.children[cp.parent], li)
		}
		tr.spans = append(tr.spans, cp)
	}

	t.store.mu.Lock()
	stores := append([]span(nil), t.store.list...)
	t.store.mu.Unlock()
	sort.Slice(stores, func(i, j int) bool { return stores[i].start < stores[j].start })
	si := 0
	for ti := range trees {
		tr := &trees[ti]
		for si < len(stores) && stores[si].start < tr.root.start {
			si++
		}
		for ; si < len(stores) && stores[si].end <= tr.root.end; si++ {
			st := stores[si]
			if st.name != spanStore {
				continue
			}
			parent := int32(0)
			for li, sp := range tr.spans { // innermost = latest-starting container
				if sp.start <= st.start && st.end <= sp.end && sp.start >= tr.spans[parent].start {
					parent = int32(li)
				}
			}
			st.op, st.parent = tr.root.op, parent
			li := int32(len(tr.spans))
			tr.children[parent] = append(tr.children[parent], li)
			tr.spans = append(tr.spans, st)
		}
	}
	return trees
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	line := func(conn int, i int, sp span) {
		fmt.Fprintf(w, `{"conn":%d,"span":%d,"op":%d,"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d,"stmt":%q}`+"\n",
			conn, i, sp.op, sp.name, sp.parent, sp.start, sp.end, kindNames[sp.kind])
	}
	for _, b := range t.conns {
		for i, sp := range b.spans {
			line(b.conn, i, sp)
		}
	}
	t.store.mu.Lock()
	for i, sp := range t.store.list {
		line(storeConnIndex, i, sp)
	}
	t.store.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
