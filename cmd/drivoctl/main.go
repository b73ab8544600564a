// Command drivoctl is the DBA's tool for Drivolution driver images:
// build encoded image files for drivolutiond, inspect them, and probe a
// running server with a DISCOVER to see which driver a client would get.
//
//	drivoctl build -kind dbms-native -api JDBC -api-version 3.0 \
//	    -version 2.1.0 -protocol 2 -opt user=app -opt password=pw \
//	    -payload 4096 -out driver.img
//	drivoctl inspect driver.img
//	drivoctl probe -server 127.0.0.1:7070 -database prod -api JDBC
//	drivoctl cluster-status -server 127.0.0.1:7171    # a member's CLUSTER address
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dbver"
	"repro/internal/driverimg"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "probe":
		err = cmdProbe(os.Args[2:])
	case "cluster-status":
		err = cmdClusterStatus(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: drivoctl {build|inspect|probe|cluster-status} [flags]")
	os.Exit(2)
}

type optFlags map[string]string

func (o optFlags) String() string { return fmt.Sprint(map[string]string(o)) }
func (o optFlags) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("option must be key=value, got %q", v)
	}
	o[k] = val
	return nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var (
		kind     = fs.String("kind", "dbms-native", "driver kind (dbms-native, sequoia)")
		api      = fs.String("api", "JDBC", "API name")
		apiVer   = fs.String("api-version", "", "API version, e.g. 3.0")
		version  = fs.String("version", "1.0.0", "driver version")
		protocol = fs.Uint("protocol", 1, "wire-protocol version the driver speaks")
		platform = fs.String("platform", "", "target platform (empty = portable)")
		pinned   = fs.String("pinned-url", "", "pre-configured target URL (ignores the app URL)")
		payload  = fs.Int("payload", 1024, "simulated code body size in bytes")
		out      = fs.String("out", "driver.img", "output file")
	)
	opts := optFlags{}
	fs.Var(opts, "opt", "driver option key=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ver, err := dbver.ParseVersion(*version)
	if err != nil {
		return err
	}
	apiMajor, apiMinor := -1, -1
	if *apiVer != "" {
		av, err := dbver.ParseVersion(*apiVer)
		if err != nil {
			return err
		}
		apiMajor, apiMinor = av.Major, av.Minor
	}
	body := make([]byte, *payload)
	for i := range body {
		body[i] = byte(i * 131)
	}
	img := &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            *kind,
			API:             dbver.API{Name: *api, Major: apiMajor, Minor: apiMinor},
			Platform:        dbver.Platform(*platform),
			Version:         ver,
			ProtocolVersion: uint16(*protocol),
			PinnedURL:       *pinned,
			Options:         opts,
		},
		Payload: body,
	}
	if err := os.WriteFile(*out, img.Encode(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s (checksum %s)\n", *out, img.Manifest.ID(), img.Checksum()[:16])
	return nil
}

func cmdInspect(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: drivoctl inspect <file.img>")
	}
	blob, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	img, err := driverimg.Decode(blob)
	if err != nil {
		return err
	}
	m := img.Manifest
	fmt.Printf("kind:      %s\n", m.Kind)
	fmt.Printf("api:       %s\n", m.API)
	fmt.Printf("version:   %s\n", m.Version)
	fmt.Printf("protocol:  %d\n", m.ProtocolVersion)
	fmt.Printf("platform:  %s\n", orAny(string(m.Platform)))
	fmt.Printf("pinned:    %s\n", orAny(m.PinnedURL))
	fmt.Printf("packages:  %s\n", strings.Join(m.Packages, ", "))
	fmt.Printf("options:   %d entries\n", len(m.Options))
	for k, v := range m.Options {
		fmt.Printf("  %s = %s\n", k, v)
	}
	fmt.Printf("payload:   %d bytes\n", len(img.Payload))
	fmt.Printf("signed:    %v\n", len(img.Signature) > 0)
	fmt.Printf("checksum:  %s\n", img.Checksum())
	return nil
}

func orAny(s string) string {
	if s == "" {
		return "(any)"
	}
	return s
}

func cmdProbe(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	var (
		server   = fs.String("server", "127.0.0.1:7070", "Drivolution server address")
		database = fs.String("database", "", "database name")
		user     = fs.String("user", "", "credentials user")
		password = fs.String("password", "", "credentials password")
		api      = fs.String("api", "JDBC", "API name")
		platform = fs.String("platform", string(dbver.PlatformLinuxAMD64), "client platform")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := core.DialLeaseClient(*server, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	offer, err := c.Discover(core.Request{
		Database:       *database,
		User:           *user,
		Password:       *password,
		API:            dbver.AnyVersionAPI(*api),
		ClientPlatform: dbver.Platform(*platform),
		ClientID:       "drivoctl",
	})
	if err != nil {
		return err
	}
	fmt.Printf("server:    %s\n", offer.ServerName)
	fmt.Printf("driver:    %s, %d bytes (checksum %s)\n", offer.Format, offer.Size, offer.DriverChecksum[:16])
	fmt.Printf("lease:     %v\n", offer.LeaseTime)
	fmt.Printf("policies:  renew=%s expiration=%s transfer=%s\n",
		offer.RenewPolicy, offer.ExpirationPolicy, offer.TransferMethod)
	return nil
}

// cmdClusterStatus asks one member for its membership view: who it has
// heard from, whether it is quorate (fenced members answer too — with
// Quorate false), and how the shard space is currently divided,
// including any handoff overrides in force.
func cmdClusterStatus(args []string) error {
	fs := flag.NewFlagSet("cluster-status", flag.ExitOnError)
	var (
		server  = fs.String("server", "127.0.0.1:7171", "a member's cluster-protocol address")
		timeout = fs.Duration("timeout", 2*time.Second, "probe timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := cluster.FetchStatus(*server, *timeout)
	if err != nil {
		return err
	}
	fmt.Printf("member:    %s (index %d)\n", st.Name, st.Index)
	fmt.Printf("quorate:   %v\n", st.Quorate)
	fmt.Printf("epoch:     %d\n", st.Epoch)
	fmt.Printf("shards:    %d\n", st.Shards)
	fmt.Printf("peers:\n")
	for _, p := range st.Peers {
		mark, state := " ", "alive"
		if p.Self {
			mark = "*"
		}
		if !p.Alive {
			state = "DOWN"
		}
		last := "now"
		if !p.Self {
			last = p.SinceSeen.Round(time.Millisecond).String() + " ago"
		}
		fmt.Printf("  %s %-20s %-21s %-5s seen %-12s owns %d shards\n",
			mark, p.Name, p.ClientAddr, state, last, p.OwnedShards)
	}
	if len(st.Overrides) > 0 {
		fmt.Printf("overrides: %d shard(s) moved off their home member\n", len(st.Overrides))
		for _, o := range st.Overrides {
			fmt.Printf("  shard %d -> member %d\n", o.Shard, o.Member)
		}
	}
	return nil
}
