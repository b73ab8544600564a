//go:build race

package core

// raceEnabled reports a -race build. The race detector turns off the
// tiny allocator, so small pointer-free allocations that a normal build
// packs into one 16-byte block each count as an object of their own.
const raceEnabled = true
