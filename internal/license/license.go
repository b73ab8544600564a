// Package license builds the paper's §5.4.2 case study — "Drivolution as
// a License Server" — on top of the core lease machinery. A Drivolution
// server in license mode hands each driver (license key) to at most one
// live lease; this package adds the server-side failure detection that
// reclaims licenses from clients that died without releasing them.
//
// The paper describes three reclamation strategies; all are covered:
//
//  1. explicit release — the bootloader "notif[ies] the Drivolution
//     server when the driver is unloaded to give back its lease"
//     (core.Bootloader.Close);
//  2. tight DBMS integration — "check if any connection with the client
//     is still active in the database engine" (DetectorFromDBMS feeding
//     Manager);
//  3. lease expiry — "wait for the client lease to expire and, if no
//     lease renewal command has been issued ... declare the driver
//     freed" (enforced by the core server's expires_at check; Manager
//     additionally marks such leases released for bookkeeping).
package license

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbms"
)

// Detector reports whether the client holding a lease is still alive.
type Detector func(lease core.Lease) bool

// DetectorFromDBMS builds a Detector backed by the database engine's
// session table: a client is alive while its user has at least one
// active connection.
func DetectorFromDBMS(srv *dbms.Server) Detector {
	return func(l core.Lease) bool {
		return srv.UserHasSession(l.User)
	}
}

// Manager sweeps the lease table of a license-mode Drivolution server,
// on its owner's call (SweepOnce), and releases leases whose holders are
// dead or whose term expired without renewal.
type Manager struct {
	srv      *core.Server
	detector Detector
}

// NewManager creates a license manager over srv. detector may be nil, in
// which case only lease expiry reclaims licenses.
func NewManager(srv *core.Server, detector Detector) *Manager {
	return &Manager{srv: srv, detector: detector}
}

// SweepOnce scans the lease table once, releasing dead or expired
// leases, and returns how many it reclaimed, also when a release fails
// part way. Expiry is judged by the server's clock (core.Server.Now),
// which every lease write binds its expiry from.
func (m *Manager) SweepOnce() (n int, err error) {
	leases, err := m.srv.Leases()
	if err != nil {
		return 0, fmt.Errorf("license: sweep: %w", err)
	}
	now := m.srv.Now()
	for _, l := range leases {
		if l.Released {
			continue
		}
		expired := now.After(l.ExpiresAt)
		dead := m.detector != nil && !m.detector(l)
		if !expired && !dead {
			continue
		}
		if err := m.srv.ReleaseLeaseByID(l.LeaseID); err != nil {
			return n, fmt.Errorf("license: release lease %d: %w", l.LeaseID, err)
		}
		n++
	}
	return n, nil
}
