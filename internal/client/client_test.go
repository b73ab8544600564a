package client

import (
	"testing"

	"repro/internal/sqlmini"
)

func TestParseURL(t *testing.T) {
	tests := []struct {
		in       string
		scheme   string
		hosts    []string
		database string
		opts     Props
		wantErr  bool
	}{
		{
			in:     "dbms://localhost:9001/prod",
			scheme: "dbms", hosts: []string{"localhost:9001"}, database: "prod",
		},
		{
			in:     "sequoia://controller1:7001,controller2:7002/db",
			scheme: "sequoia", hosts: []string{"controller1:7001", "controller2:7002"}, database: "db",
		},
		{
			in:     "dbms://h:1/db?user=alice&fetch=100",
			scheme: "dbms", hosts: []string{"h:1"}, database: "db",
			opts: Props{"user": "alice", "fetch": "100"},
		},
		{
			in:     "drivolution://h:1",
			scheme: "drivolution", hosts: []string{"h:1"}, database: "",
		},
		{in: "no-scheme", wantErr: true},
		{in: "://host/db", wantErr: true},
		{in: "dbms:///db", wantErr: true},
		{in: "dbms://,/db", wantErr: true},
	}
	for _, tt := range tests {
		u, err := ParseURL(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseURL(%q) succeeded, want error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseURL(%q): %v", tt.in, err)
			continue
		}
		if u.Scheme != tt.scheme || u.Database != tt.database {
			t.Errorf("ParseURL(%q) = scheme %q db %q", tt.in, u.Scheme, u.Database)
		}
		if len(u.Hosts) != len(tt.hosts) {
			t.Errorf("ParseURL(%q) hosts = %v", tt.in, u.Hosts)
			continue
		}
		for i := range u.Hosts {
			if u.Hosts[i] != tt.hosts[i] {
				t.Errorf("ParseURL(%q) hosts = %v, want %v", tt.in, u.Hosts, tt.hosts)
			}
		}
		for k, v := range tt.opts {
			if u.Options[k] != v {
				t.Errorf("ParseURL(%q) option %s = %q, want %q", tt.in, k, u.Options[k], v)
			}
		}
	}
}

func TestURLStringRoundTrip(t *testing.T) {
	for _, raw := range []string{
		"dbms://localhost:9001/prod",
		"sequoia://c1:1,c2:2/db",
		"dbms://h:1/db?a=1&b=2",
	} {
		u, err := ParseURL(raw)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseURL(u.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", u.String(), err)
		}
		if again.String() != u.String() {
			t.Errorf("round trip: %q vs %q", again.String(), u.String())
		}
	}
}

func TestPropsMergeClone(t *testing.T) {
	base := Props{"a": "1", "b": "2"}
	merged := base.Merge(Props{"b": "x", "c": "3"})
	if merged["a"] != "1" || merged["b"] != "x" || merged["c"] != "3" {
		t.Errorf("merged = %v", merged)
	}
	if base["b"] != "2" {
		t.Error("Merge mutated the receiver")
	}
	c := base.Clone()
	c["a"] = "changed"
	if base["a"] != "1" {
		t.Error("Clone did not copy")
	}
	if Props(nil).Clone() != nil {
		t.Error("nil Clone should be nil")
	}
	if got := (Props{"z": "1", "a": "2"}).String(); got != "a=2 z=1" {
		t.Errorf("String = %q", got)
	}
}

func TestResultHoldsValues(t *testing.T) {
	r := &Result{Cols: []string{"a"}, Rows: [][]sqlmini.Value{{sqlmini.NewInt(1)}}}
	if r.Rows[0][0].Int() != 1 {
		t.Fatal("value round trip")
	}
}
