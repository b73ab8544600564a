// Package dbver defines version numbers, API descriptors, and platform
// descriptors shared by drivers, databases, and the Drivolution
// matchmaking logic. The paper's driver table (Table 1) keys drivers by
// API name + major/minor API version + platform + a three-part driver
// version; this package is the common vocabulary for those fields.
package dbver

import (
	"fmt"
	"strconv"
	"strings"
)

// Version is a three-part driver or protocol version. The paper's schema
// stores major/minor/micro as separate nullable INTEGER columns; a
// negative part here means "unspecified" and matches anything.
type Version struct {
	Major, Minor, Micro int
}

// Unspecified is the wildcard version (all parts unspecified).
var Unspecified = Version{Major: -1, Minor: -1, Micro: -1}

// V constructs a fully specified version.
func V(major, minor, micro int) Version {
	return Version{Major: major, Minor: minor, Micro: micro}
}

// String renders "1.2.3"; unspecified parts render as "*".
func (v Version) String() string {
	part := func(n int) string {
		if n < 0 {
			return "*"
		}
		return strconv.Itoa(n)
	}
	return part(v.Major) + "." + part(v.Minor) + "." + part(v.Micro)
}

// Compare orders two versions; unspecified parts compare as zero.
func (v Version) Compare(o Version) int {
	for _, pair := range [][2]int{{v.Major, o.Major}, {v.Minor, o.Minor}, {v.Micro, o.Micro}} {
		a, b := pair[0], pair[1]
		if a < 0 {
			a = 0
		}
		if b < 0 {
			b = 0
		}
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// ParseVersion parses "1", "1.2", "1.2.3", with "*" or missing parts
// meaning unspecified.
func ParseVersion(s string) (Version, error) {
	v := Unspecified
	if strings.TrimSpace(s) == "" || s == "*" {
		return v, nil
	}
	parts := strings.Split(s, ".")
	if len(parts) > 3 {
		return v, fmt.Errorf("dbver: invalid version %q", s)
	}
	dst := []*int{&v.Major, &v.Minor, &v.Micro}
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "*" || p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return Unspecified, fmt.Errorf("dbver: invalid version %q", s)
		}
		*dst[i] = n
	}
	return v, nil
}

// API identifies a client-facing database API, e.g. JDBC 3 or ODBC 3.5.
// Name is compared with SQL LIKE semantics (case-insensitive, wildcards).
type API struct {
	Name  string
	Major int // -1 means unspecified
	Minor int // -1 means unspecified
}

// APIOf builds a fully specified API descriptor.
func APIOf(name string, major, minor int) API {
	return API{Name: name, Major: major, Minor: minor}
}

// AnyVersionAPI builds an API descriptor that matches any version.
func AnyVersionAPI(name string) API { return API{Name: name, Major: -1, Minor: -1} }

// String renders "JDBC 3.0" (or "JDBC *" when unversioned).
func (a API) String() string {
	if a.Major < 0 {
		return a.Name + " *"
	}
	if a.Minor < 0 {
		return fmt.Sprintf("%s %d.*", a.Name, a.Major)
	}
	return fmt.Sprintf("%s %d.%d", a.Name, a.Major, a.Minor)
}

// Platform describes where a bootloader runs, e.g. "jre-1.5",
// "linux-x86_64", "windows-i586". Matched with LIKE semantics; the empty
// platform on the driver side means "all platforms" (the paper's NULL).
type Platform string

// Common platforms used across tests, examples, and benchmarks.
const (
	PlatformAny          Platform = ""
	PlatformLinuxAMD64   Platform = "linux-x86_64"
	PlatformLinuxI586    Platform = "linux-i586"
	PlatformWindowsI586  Platform = "windows-i586"
	PlatformWindowsAMD64 Platform = "windows-x86_64"
	PlatformJRE15        Platform = "jre-1.5"
	PlatformJRE16        Platform = "jre-1.6"
	PlatformGo           Platform = "go-any"
)

// BinaryFormat names the container format of a stored driver binary
// (the paper's binary_format column: JAR, ZIP, ...).
type BinaryFormat string

// Supported binary formats.
const (
	// FormatImage is this repo's native serialized driver-image format.
	FormatImage BinaryFormat = "IMAGE"
	// FormatBundle is a multi-package container (base driver + feature
	// packages), the analog of a JAR with extension JARs (§5.4.1).
	FormatBundle BinaryFormat = "BUNDLE"
)
