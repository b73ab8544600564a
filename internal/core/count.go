package core

import (
	"sync/atomic"

	"repro/internal/sqlmini"
)

// CountingStore wraps a Store and counts what crosses the storage
// boundary: statements, wire-level round trips (a batch is one), and
// batches. Tests use it to pin hot-path statement budgets — a no-change
// lease renewal is 1 statement, an expiry sweep is 1 round trip
// regardless of lease count — so a regression that quietly adds
// per-row SQL fails loudly. Versions passes through uncounted, so the
// wrapped server keeps the catalog fast path it takes over the bare
// store.
type CountingStore struct {
	Store

	statements atomic.Int64
	roundTrips atomic.Int64
	batchCount atomic.Int64
}

// NewCountingStore wraps inner.
func NewCountingStore(inner Store) *CountingStore {
	return &CountingStore{Store: inner}
}

// Statements reports statements issued through the wrapper (batch
// statements included).
func (c *CountingStore) Statements() int64 { return c.statements.Load() }

// RoundTrips reports wire round trips, counting a batch as one.
func (c *CountingStore) RoundTrips() int64 { return c.roundTrips.Load() }

// Batches reports ExecBatch calls.
func (c *CountingStore) Batches() int64 { return c.batchCount.Load() }

// Reset zeroes all counters (typically right before the measured
// window).
func (c *CountingStore) Reset() {
	c.statements.Store(0)
	c.roundTrips.Store(0)
	c.batchCount.Store(0)
}

// count records n statements in one round trip.
func (c *CountingStore) count(n int) {
	c.statements.Add(int64(n))
	c.roundTrips.Add(1)
}

// Exec implements Store.
func (c *CountingStore) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	c.count(1)
	return c.Store.Exec(sql, args...)
}

// ExecBatch implements Store.
func (c *CountingStore) ExecBatch(stmts []Statement) ([]*sqlmini.Result, error) {
	c.batchCount.Add(1)
	c.count(len(stmts))
	return c.Store.ExecBatch(stmts)
}

// Prepare implements Store; every execution of the handle counts.
func (c *CountingStore) Prepare(sql string) (Stmt, error) {
	h, err := c.Store.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return countingStmt{c: c, h: h}, nil
}

type countingStmt struct {
	c *CountingStore
	h Stmt
}

func (s countingStmt) Exec(args ...any) (*sqlmini.Result, error) {
	s.c.count(1)
	return s.h.Exec(args...)
}

func (s countingStmt) Close() error { return s.h.Close() }
