package dbver

import (
	"testing"
	"testing/quick"
)

func TestVersionString(t *testing.T) {
	tests := []struct {
		v    Version
		want string
	}{
		{V(1, 2, 3), "1.2.3"},
		{Unspecified, "*.*.*"},
		{Version{Major: 2, Minor: -1, Micro: -1}, "2.*.*"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("%#v.String() = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestParseVersion(t *testing.T) {
	tests := []struct {
		in   string
		want Version
		ok   bool
	}{
		{"1.2.3", V(1, 2, 3), true},
		{"1.2", Version{1, 2, -1}, true},
		{"1", Version{1, -1, -1}, true},
		{"", Unspecified, true},
		{"*", Unspecified, true},
		{"1.*.3", Version{1, -1, 3}, true},
		{"1.2.3.4", Unspecified, false},
		{"a.b", Unspecified, false},
		{"-1", Unspecified, false},
	}
	for _, tt := range tests {
		got, err := ParseVersion(tt.in)
		if (err == nil) != tt.ok {
			t.Errorf("ParseVersion(%q) err = %v, ok = %v", tt.in, err, tt.ok)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("ParseVersion(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseStringRoundTripProperty(t *testing.T) {
	prop := func(a, b, c uint8) bool {
		v := V(int(a), int(b), int(c))
		got, err := ParseVersion(v.String())
		return err == nil && got == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVersionCompare(t *testing.T) {
	tests := []struct {
		a, b Version
		want int
	}{
		{V(1, 0, 0), V(2, 0, 0), -1},
		{V(2, 0, 0), V(1, 9, 9), 1},
		{V(1, 2, 3), V(1, 2, 3), 0},
		{V(1, 2, 3), V(1, 2, 4), -1},
		{V(1, 3, 0), V(1, 2, 9), 1},
		{Unspecified, V(0, 0, 0), 0},
	}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAPIString(t *testing.T) {
	if got := APIOf("JDBC", 3, 0).String(); got != "JDBC 3.0" {
		t.Errorf("got %q", got)
	}
	if got := AnyVersionAPI("ODBC").String(); got != "ODBC *" {
		t.Errorf("got %q", got)
	}
	if got := (API{Name: "JDBC", Major: 4, Minor: -1}).String(); got != "JDBC 4.*" {
		t.Errorf("got %q", got)
	}
}
