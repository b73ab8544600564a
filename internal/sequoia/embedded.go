package sequoia

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// This file implements Figure 6: "Drivolution servers embedded in
// Sequoia controllers". Each controller hosts its own Drivolution server
// over its own store; admin operations go through the group so every
// embedded server converges to the same driver set ("When a new driver
// is added to a Drivolution server, it is instantly replicated to other
// Drivolution servers").

// EmbeddedDrivolution is the per-controller Drivolution server handle.
type EmbeddedDrivolution struct {
	Controller *Controller
	Server     *core.Server
}

// ReplicatedDrivolution fans admin operations out to every embedded
// server in a controller group.
type ReplicatedDrivolution struct {
	members []EmbeddedDrivolution
}

// EmbedDrivolution creates one Drivolution server per controller in the
// group, each listening on its own port, and returns the replicated
// admin handle. Extra core.ServerOptions apply to every member.
//
// The members share one replicated store — the in-process equivalent of
// the paper's "this implementation leverages the Sequoia replication
// infrastructure to synchronize Drivolution servers so as to always
// provide a consistent state" — so a lease granted by one member renews
// against any other.
func EmbedDrivolution(g *Group, opts ...core.ServerOption) (*ReplicatedDrivolution, error) {
	rd := &ReplicatedDrivolution{}
	shared := sqlmini.NewDB()
	for _, ctrl := range g.Controllers() {
		store := core.NewLocalStore(shared)
		srv, err := core.NewServer("drivolution@"+ctrl.Name(), store, opts...)
		if err != nil {
			rd.Stop()
			return nil, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			rd.Stop()
			return nil, err
		}
		rd.members = append(rd.members, EmbeddedDrivolution{Controller: ctrl, Server: srv})
	}
	return rd, nil
}

// Addrs lists the embedded servers' addresses (bootloaders get the full
// list, mirroring the multi-host Sequoia URL).
func (rd *ReplicatedDrivolution) Addrs() []string {
	out := make([]string, 0, len(rd.members))
	for _, m := range rd.members {
		if a := m.Server.Addr(); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// ServerFor returns the embedded server of the named controller.
func (rd *ReplicatedDrivolution) ServerFor(controllerName string) *core.Server {
	for _, m := range rd.members {
		if m.Controller.Name() == controllerName {
			return m.Server
		}
	}
	return nil
}

// anyRunning returns a member whose server is still listening.
func (rd *ReplicatedDrivolution) anyRunning() (*core.Server, error) {
	for _, m := range rd.members {
		if m.Server.Addr() != "" {
			return m.Server, nil
		}
	}
	return nil, fmt.Errorf("sequoia: no embedded Drivolution server running")
}

// notifyAll pushes an update notification through every running member
// so dedicated-channel subscribers hear it no matter which replica they
// subscribed to.
func (rd *ReplicatedDrivolution) notifyAll(database, api string) {
	for _, m := range rd.members {
		if m.Server.Addr() != "" {
			m.Server.NotifyUpdate(database, api)
		}
	}
}

// AddDriver inserts the driver once; the shared replicated store makes
// it visible to every member instantly.
func (rd *ReplicatedDrivolution) AddDriver(img *driverimg.Image, format dbver.BinaryFormat) (int64, error) {
	srv, err := rd.anyRunning()
	if err != nil {
		return 0, err
	}
	id, err := srv.AddDriver(img, format)
	if err != nil {
		return 0, err
	}
	rd.notifyAll("", img.Manifest.API.Name)
	return id, nil
}

// StopFor stops the embedded server of one controller (simulating that
// controller's failure together with Controller.Stop).
func (rd *ReplicatedDrivolution) StopFor(controllerName string) {
	if s := rd.ServerFor(controllerName); s != nil {
		s.Stop()
	}
}

// Stop stops every embedded server.
func (rd *ReplicatedDrivolution) Stop() {
	for _, m := range rd.members {
		m.Server.Stop()
	}
}
