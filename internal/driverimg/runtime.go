package driverimg

import (
	"fmt"
	"sync"

	"repro/internal/client"
	"repro/internal/dbver"
)

// Factory instantiates a live client.Driver from a decoded image. Each
// driver family (the simulated DBMS's native protocol, the Sequoia
// controller protocol, ...) registers one factory under its Kind.
//
// img.Payload and img.Signature are valid only until the factory
// returns: a bootloader decodes an image where it received it (Decode
// aliases both) and reuses that buffer for the next image once Load is
// done. A factory keeps what it builds from them, or copies them; both
// shipped factories keep only Manifest.Clone() (WrapDriver).
type Factory func(img *Image) (client.Driver, error)

// Runtime is the dynamic "code" loader: it turns driver images into live
// drivers, the stand-in for the JVM classloader in the paper's
// implementation. A Runtime holds one factory per driver kind; loading an
// image whose kind has no registered factory is the analog of a
// ClassNotFoundException.
type Runtime struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRuntime creates an empty runtime.
func NewRuntime() *Runtime {
	return &Runtime{factories: make(map[string]Factory)}
}

// Register installs a factory for the given driver kind, replacing any
// previous registration.
func (rt *Runtime) Register(kind string, f Factory) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.factories[kind] = f
}

// Kinds returns the registered driver kinds.
func (rt *Runtime) Kinds() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]string, 0, len(rt.factories))
	for k := range rt.factories {
		out = append(out, k)
	}
	return out
}

// Load instantiates a decoded image into a live driver.
func (rt *Runtime) Load(img *Image) (client.Driver, error) {
	rt.mu.RLock()
	f, ok := rt.factories[img.Manifest.Kind]
	rt.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("driverimg: no factory for driver kind %q (available: %v)",
			img.Manifest.Kind, rt.Kinds())
	}
	drv, err := f(img)
	if err != nil {
		return nil, fmt.Errorf("driverimg: instantiating %s: %w", img.Manifest.ID(), err)
	}
	return drv, nil
}

// WrapDriver decorates an inner driver with the image's manifest-level
// behaviour: URL pinning and option defaults. Factories use it so every
// driver family gets identical manifest semantics.
func WrapDriver(inner client.Driver, img *Image) client.Driver {
	return &manifestDriver{inner: inner, man: img.Manifest.Clone()}
}

type manifestDriver struct {
	inner client.Driver
	man   Manifest
}

func (d *manifestDriver) Name() string { return d.man.Kind }

func (d *manifestDriver) Version() dbver.Version { return d.man.Version }

func (d *manifestDriver) Connect(url string, props client.Props) (client.Conn, error) {
	// Pre-configured drivers ignore the application URL entirely (paper
	// §5.2: "Whatever host name is found in the URL specified by the
	// client application, it is ignored").
	if d.man.PinnedURL != "" {
		url = d.man.PinnedURL
	}
	merged := client.Props{}
	for k, v := range d.man.Options {
		merged[k] = v
	}
	for k, v := range props {
		merged[k] = v
	}
	return d.inner.Connect(url, merged)
}
