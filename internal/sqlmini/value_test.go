package sqlmini

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestLike(t *testing.T) {
	tests := []struct {
		s, p string
		want bool
	}{
		{"JDBC", "JDBC", true},
		{"jdbc", "JDBC", true}, // case-insensitive, per package doc
		{"JDBC", "J%", true},
		{"JDBC", "%C", true},
		{"JDBC", "%DB%", true},
		{"JDBC", "J_BC", true},
		{"JDBC", "J__C", true},
		{"JDBC", "J_C", false},
		{"JDBC", "%", true},
		{"", "%", true},
		{"", "", true},
		{"", "_", false},
		{"linux-x86_64", "linux-%", true},
		{"linux-x86_64", "%x86%", true},
		{"windows-i586", "linux-%", false},
		{"JRE 1.5", "JRE 1._", true},
		{"abc", "a%b%c", true},
		{"aXbYc", "a%b%c", true},
		{"ac", "a%b%c", false},
		{"JDBC3", "JDBC", false},
		{"ODBC", "%DBC", true},
	}
	for _, tt := range tests {
		if got := Like(tt.s, tt.p); got != tt.want {
			t.Errorf("Like(%q, %q) = %v, want %v", tt.s, tt.p, got, tt.want)
		}
	}
}

func TestLikePercentMatchesEverythingProperty(t *testing.T) {
	prop := func(s string) bool { return Like(s, "%") }
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLikeSelfMatchProperty(t *testing.T) {
	// Any string without wildcards matches itself.
	prop := func(s string) bool {
		for _, r := range s {
			if r == '%' || r == '_' {
				return true // skip wildcard-bearing inputs
			}
		}
		return Like(s, s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// refLike is Like as it was before it folded case in place: lower both
// operands whole, then match their runes. FuzzLike holds Like to it.
func refLike(s, pattern string) bool {
	var si, pi int
	star, sBack := -1, 0
	rs, rp := []rune(strings.ToLower(s)), []rune(strings.ToLower(pattern))
	for si < len(rs) {
		switch {
		case pi < len(rp) && (rp[pi] == '_' || rp[pi] == rs[si]):
			si++
			pi++
		case pi < len(rp) && rp[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star != -1:
			pi = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	for pi < len(rp) && rp[pi] == '%' {
		pi++
	}
	return pi == len(rp)
}

// FuzzLike holds Like to refLike: non-ASCII folding (the Kelvin sign
// and the dotted capital I fold to ASCII letters of another width),
// invalid UTF-8 (one U+FFFD per byte on both sides, which a literal
// U+FFFD also matches), and runs of '%' and '_'. The seed corpus runs
// as part of plain `go test`.
func FuzzLike(f *testing.F) {
	f.Add("JDBC", "%db%")
	f.Add("\u212a", "k")         // KELVIN SIGN folds to k
	f.Add("k", "\u212a")         // and as the pattern
	f.Add("\u0130stanbul", "i%") // LATIN CAPITAL I WITH DOT ABOVE folds to i
	f.Add("\u0130\u0130", "__")
	f.Add("ΣΑΣ", "σ_ς")
	f.Add("a\xffb", "a_b")
	f.Add("a\xffb", "a\ufffdb")
	f.Add("\xe2\x82", "__")
	f.Add("\xe2\x82x", "%\xe2x")
	f.Add("abcabc", "%%a%%_c")
	f.Add("a%_b", "a%%_%b")
	f.Add("aaa", "a%%%%%_")
	f.Add("", "%%%")
	f.Add("__", "%_%_%_")
	f.Fuzz(func(t *testing.T, s, p string) {
		if got, want := Like(s, p), refLike(s, p); got != want {
			t.Fatalf("Like(%q, %q) = %v, reference %v", s, p, got, want)
		}
	})
}

// TestLikeAllocs pins LIKE at no allocation: matchmaking calls it on
// every renewal.
func TestLikeAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		Like("JDBC", "%db%")
		Like("Linux-X86_64", "LINUX-%")
		Like("Kelvin", "k%")
	}); n != 0 {
		t.Fatalf("Like allocates %v times, want 0", n)
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("10"), NewInt(9), 1}, // numeric coercion
		{NewBool(true), NewBool(false), 1},
		{NewBool(true), NewInt(1), 0},
		{NewTime(time.Unix(1, 0)), NewTime(time.Unix(2, 0)), -1},
		{NewBytes([]byte("aa")), NewBytes([]byte("ab")), -1},
	}
	for _, tt := range tests {
		got, ok := Compare(tt.a, tt.b)
		if !ok {
			t.Errorf("Compare(%s, %s) not ok", tt.a, tt.b)
			continue
		}
		if got != tt.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCompareNullUnknown(t *testing.T) {
	if _, ok := Compare(Null, NewInt(1)); ok {
		t.Error("NULL comparison should be unknown")
	}
	if _, ok := Compare(NewInt(1), Null); ok {
		t.Error("NULL comparison should be unknown")
	}
	if Equal(Null, Null) {
		t.Error("NULL = NULL must be false in SQL")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	prop := func(a, b int64) bool {
		c1, ok1 := Compare(NewInt(a), NewInt(b))
		c2, ok2 := Compare(NewInt(b), NewInt(a))
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(NewString("42"), TypeInteger)
	if err != nil || v.Int() != 42 {
		t.Errorf("string->int: %v %v", v, err)
	}
	v, err = Coerce(NewInt(7), TypeVarchar)
	if err != nil || v.Str() != "7" {
		t.Errorf("int->varchar: %v %v", v, err)
	}
	v, err = Coerce(Null, TypeBlob)
	if err != nil || !v.IsNull() {
		t.Errorf("null passthrough: %v %v", v, err)
	}
	if _, err = Coerce(NewInt(7), TypeBlob); err == nil {
		t.Error("int->blob should fail")
	}
	v, err = Coerce(NewInt(1), TypeBoolean)
	if err != nil || !v.Bool() {
		t.Errorf("int->bool: %v %v", v, err)
	}
}

func TestFromGo(t *testing.T) {
	now := time.Now()
	cases := []struct {
		in   any
		want string
	}{
		{nil, "NULL"},
		{42, "42"},
		{int64(-7), "-7"},
		{3.5, "3.5"},
		{"hi", "'hi'"},
		{true, "TRUE"},
	}
	for _, c := range cases {
		v, err := FromGo(c.in)
		if err != nil {
			t.Fatalf("FromGo(%v): %v", c.in, err)
		}
		if v.String() != c.want {
			t.Errorf("FromGo(%v) = %s, want %s", c.in, v, c.want)
		}
	}
	v, err := FromGo(now)
	if err != nil || !v.Time().Equal(now) {
		t.Errorf("FromGo(time) = %v, %v", v, err)
	}
	if _, err := FromGo(struct{}{}); err == nil {
		t.Error("FromGo(struct{}{}) should fail")
	}
}

func TestValueAccessorsOnNull(t *testing.T) {
	if Null.Int() != 0 || Null.Str() != "" || Null.Bytes() != nil || Null.Bool() || !Null.Time().IsZero() {
		t.Error("NULL accessors should return zero values")
	}
	if Null.Type() != TypeNull {
		t.Errorf("Null.Type() = %v", Null.Type())
	}
}

// TestUnboundSlot: a slot a by-name binding leaves alone is refused as
// a missing parameter — by Params.Value and by the statement, with the
// same error as a name the Args map lacks — and its value reads as
// neither NULL nor any SQL type, while a slot bound to NULL is bound.
func TestUnboundSlot(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)")
	db.MustExec("INSERT INTO t (id, v) VALUES (1, 2)")
	const q = "SELECT id FROM t WHERE id = $a OR v = $b"
	st, err := db.ParseCached(q)
	if err != nil {
		t.Fatal(err)
	}
	var ps Params
	slots := ps.Named(st.NumSlots())
	b, _ := st.Slot([]byte("b"))
	slots[b] = Null
	a, _ := st.Slot([]byte("a"))
	u := slots[a]
	if u.IsNull() {
		t.Fatal("an unbound slot reads as NULL")
	}
	for typ := TypeNull; typ <= TypeBoolean; typ++ {
		if u.Type() == typ {
			t.Fatalf("an unbound slot reads as %v", typ)
		}
	}
	if _, ok := ps.Value(a); ok {
		t.Fatal("Params.Value reports the unbound slot bound")
	}
	if v, ok := ps.Value(b); !ok || !v.IsNull() {
		t.Fatalf("Params.Value(NULL slot) = %v, %v; want NULL, bound", v, ok)
	}
	_, got := db.NewSession().ExecParams(st, &ps)
	_, want := db.Exec(q, Args{"b": nil})
	if !errors.Is(got, ErrMissingParam) || want == nil || got.Error() != want.Error() {
		t.Fatalf("unbound $a: %v; through an Args map: %v", got, want)
	}
}
