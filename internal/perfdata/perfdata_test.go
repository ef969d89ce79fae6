package perfdata

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestKVRoundTrip(t *testing.T) {
	cases := []KV{
		{"name", "HPL"},
		{"description", "HPL - A Portable Implementation | with pipe"},
		{"empty", ""},
	}
	for _, kv := range cases {
		got, err := ParseKV(kv.Encode())
		if err != nil {
			t.Fatalf("ParseKV(%q): %v", kv.Encode(), err)
		}
		if got != kv {
			t.Errorf("round trip: got %+v want %+v", got, kv)
		}
	}
}

func TestParseKVMalformed(t *testing.T) {
	if _, err := ParseKV("nosep"); err == nil {
		t.Error("ParseKV(nosep): want error")
	}
}

func TestKVsRoundTrip(t *testing.T) {
	kvs := []KV{{"a", "1"}, {"b", "2"}}
	got, err := ParseKVs(EncodeKVs(kvs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, kvs) {
		t.Errorf("got %+v", got)
	}
	if _, err := ParseKVs([]string{"a|1", "bad"}); err == nil {
		t.Error("ParseKVs with malformed entry: want error")
	}
}

func TestAttributeRoundTrip(t *testing.T) {
	a := Attribute{Name: "numprocesses", Values: []string{"2", "4", "8"}}
	got, err := ParseAttribute(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("got %+v want %+v", got, a)
	}
}

func TestAttributeNoValues(t *testing.T) {
	got, err := ParseAttribute("rundate")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "rundate" || len(got.Values) != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestAttributeErrors(t *testing.T) {
	for _, s := range []string{"", "|x"} {
		if _, err := ParseAttribute(s); err == nil {
			t.Errorf("ParseAttribute(%q): want error", s)
		}
	}
}

func TestNormalizeValues(t *testing.T) {
	a := Attribute{Name: "n", Values: []string{"4", "2", "4", "16", "2"}}
	a.NormalizeValues()
	want := []string{"16", "2", "4"}
	if !reflect.DeepEqual(a.Values, want) {
		t.Errorf("got %v want %v", a.Values, want)
	}
}

func TestExecutionMatches(t *testing.T) {
	e := Execution{ID: "7", Attrs: map[string]string{"numprocesses": "16", "rundate": "2004-03-15"}}
	if !e.Matches("numprocesses", "16") {
		t.Error("exact match failed")
	}
	if e.Matches("numprocesses", "8") {
		t.Error("wrong value matched")
	}
	if e.Matches("missing", "16") {
		t.Error("missing attribute matched")
	}
}

func TestExecutionInfoSortedWithID(t *testing.T) {
	e := Execution{ID: "3", Attrs: map[string]string{"z": "1", "a": "2"}}
	info := e.Info()
	want := []KV{{"id", "3"}, {"a", "2"}, {"z", "1"}}
	if !reflect.DeepEqual(info, want) {
		t.Errorf("got %+v want %+v", info, want)
	}
}

func TestTimeRangeEncodeMatchesPaperExample(t *testing.T) {
	r := TimeRange{Start: 0, End: 11.047856}
	if got := r.Encode(); got != "0.0-11.047856" {
		t.Errorf("Encode() = %q, want 0.0-11.047856", got)
	}
}

func TestTimeRangeRoundTrip(t *testing.T) {
	cases := []TimeRange{
		{0, 1}, {0.5, 11.047856}, {100, 100}, {3, 1e6},
		{-2, 1}, {-3, 0},
		// A negative end: the encoding holds "--".
		{-2, -1}, {-10.5, -0.25}, {-1, -1},
	}
	for _, r := range cases {
		got, err := ParseTimeRange(r.Encode())
		if err != nil {
			t.Fatalf("ParseTimeRange(%q): %v", r.Encode(), err)
		}
		if got != r {
			t.Errorf("got %+v want %+v", got, r)
		}
	}
}

func TestTimeRangeParseErrors(t *testing.T) {
	for _, s := range []string{"", "5", "-5", "a-b", "2.0-1.0", "1.0-"} {
		if _, err := ParseTimeRange(s); err == nil {
			t.Errorf("ParseTimeRange(%q): want error", s)
		}
	}
}

func TestTimeRangeContainsOverlaps(t *testing.T) {
	r := TimeRange{Start: 1, End: 5}
	if !r.Contains(1) || r.Contains(5) || !r.Contains(3) || r.Contains(0.5) {
		t.Error("Contains half-open semantics wrong")
	}
	if !r.Overlaps(TimeRange{Start: 4, End: 6}) || !r.Overlaps(TimeRange{Start: 0, End: 2}) || !r.Overlaps(TimeRange{Start: 2, End: 3}) {
		t.Error("Overlaps missed intersecting ranges")
	}
	if r.Overlaps(TimeRange{Start: 5, End: 6}) || r.Overlaps(TimeRange{Start: 0, End: 1}) {
		t.Error("Overlaps matched touching-only ranges")
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := Result{Metric: "gflops", Focus: "/Process/0", Time: TimeRange{Start: 0, End: 12.5}, Type: "hpl", Value: 1.234}
	got, err := ParseResult(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("got %+v want %+v", got, r)
	}
}

func TestResultParseErrors(t *testing.T) {
	for _, s := range []string{"", "a|b|c", "m|f|t|0.0-1.0|notanumber", "m|f|t|bad|1"} {
		if _, err := ParseResult(s); err == nil {
			t.Errorf("ParseResult(%q): want error", s)
		}
	}
}

func TestResultsRoundTrip(t *testing.T) {
	rs := []Result{
		{Metric: "a", Focus: "/x", Time: TimeRange{Start: 0, End: 1}, Type: "t", Value: 1},
		{Metric: "b", Focus: "/y", Time: TimeRange{Start: 1, End: 2}, Type: "t", Value: 2},
	}
	got, err := ParseResults(EncodeResults(rs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Errorf("got %+v", got)
	}
	if _, err := ParseResults([]string{"bad"}); err == nil {
		t.Error("ParseResults(bad): want error")
	}
}

func TestQueryKeyMatchesPaperStyle(t *testing.T) {
	q := Query{
		Metric: "func_calls",
		Foci:   []string{"/Code/MPI/MPI_Allgather"},
		Type:   UndefinedType,
		Time:   TimeRange{Start: 0, End: 11.047856},
	}
	want := "func_calls|/Code/MPI/MPI_Allgather|UNDEFINED|0.0-11.047856"
	if got := q.Key(); got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}

func TestQueryKeyFociOrderInsensitive(t *testing.T) {
	a := Query{Metric: "m", Foci: []string{"/b", "/a"}, Type: "t", Time: TimeRange{Start: 0, End: 1}}
	b := Query{Metric: "m", Foci: []string{"/a", "/b"}, Type: "t", Time: TimeRange{Start: 0, End: 1}}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	// And Key must not mutate the caller's foci slice order.
	if a.Foci[0] != "/b" {
		t.Error("Key mutated Foci")
	}
}

func TestQueryWireParamsRoundTrip(t *testing.T) {
	q := Query{Metric: "gflops", Foci: []string{"/Process/0", "/Process/1"}, Time: TimeRange{Start: 0.5, End: 9}, Type: "hpl"}
	got, err := ParseQueryParams(q.WireParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Errorf("got %+v want %+v", got, q)
	}
}

func TestParseQueryParamsErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"m", "0", "1"},
		{"m", "x", "1", "t"},
		{"m", "0", "x", "t"},
		{"m", "5", "1", "t"},
	}
	for _, args := range cases {
		if _, err := ParseQueryParams(args); err == nil {
			t.Errorf("ParseQueryParams(%v): want error", args)
		}
	}
}

func TestQueryMatches(t *testing.T) {
	r := Result{Metric: "gflops", Focus: "/Process/3", Time: TimeRange{Start: 2, End: 4}, Type: "hpl", Value: 1}
	base := Query{Metric: "gflops", Time: TimeRange{Start: 0, End: 10}, Type: "hpl"}

	if !base.Matches(r) {
		t.Error("empty foci should match any focus")
	}
	q := base
	q.Foci = []string{"/Process/3"}
	if !q.Matches(r) {
		t.Error("exact focus should match")
	}
	q.Foci = []string{"/Process"}
	if !q.Matches(r) {
		t.Error("ancestor focus should match")
	}
	q.Foci = []string{"/Code"}
	if q.Matches(r) {
		t.Error("unrelated focus matched")
	}
	q = base
	q.Metric = "other"
	if q.Matches(r) {
		t.Error("metric mismatch matched")
	}
	q = base
	q.Type = "vampir"
	if q.Matches(r) {
		t.Error("type mismatch matched")
	}
	q = base
	q.Type = UndefinedType
	if !q.Matches(r) {
		t.Error("UNDEFINED type should match any")
	}
	q = base
	q.Time = TimeRange{Start: 5, End: 10}
	if q.Matches(r) {
		t.Error("disjoint time matched")
	}
}

func TestFocusMatches(t *testing.T) {
	cases := []struct {
		query, stored string
		want          bool
	}{
		{"/", "/Process/27", true},
		{"", "/anything", true},
		{"/Process/27", "/Process/27", true},
		{"/Process", "/Process/27", true},
		{"/Process/", "/Process/27", true},
		{"/Process/2", "/Process/27", false},
		{"/Code/MPI", "/Code/MPI/MPI_Comm_rank", true},
		{"/Code/MPI/MPI_Send", "/Code/MPI/MPI_Comm_rank", false},
	}
	for _, c := range cases {
		if got := FocusMatches(c.query, c.stored); got != c.want {
			t.Errorf("FocusMatches(%q, %q) = %v, want %v", c.query, c.stored, got, c.want)
		}
	}
}

func TestFocusDepth(t *testing.T) {
	cases := map[string]int{"/": 0, "": 0, "/Process": 1, "/Process/27": 2, "/Code/MPI/MPI_Send": 3}
	for f, want := range cases {
		if got := FocusDepth(f); got != want {
			t.Errorf("FocusDepth(%q) = %d, want %d", f, got, want)
		}
	}
}

func TestUniqueSorted(t *testing.T) {
	in := []string{"b", "a", "b", "c", "a"}
	got := UniqueSorted(in)
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("got %v", got)
	}
	// Input must be unmodified.
	if !reflect.DeepEqual(in, []string{"b", "a", "b", "c", "a"}) {
		t.Error("UniqueSorted mutated input")
	}
}

// Property: results with finite values round-trip exactly.
func TestQuickResultRoundTrip(t *testing.T) {
	f := func(metric, focus, typ string, start, span, val float64) bool {
		clean := func(s string) string {
			s = strings.Map(func(r rune) rune {
				if r == '|' || r < 0x20 {
					return '_'
				}
				return r
			}, strings.ToValidUTF8(s, "_"))
			return s
		}
		// Execution-relative times are nonnegative by definition.
		start, span, val = math.Abs(sane(start)), math.Abs(sane(span)), sane(val)
		r := Result{
			Metric: clean(metric), Focus: clean(focus), Type: clean(typ),
			Time: TimeRange{Start: start, End: start + span}, Value: val,
		}
		got, err := ParseResult(r.Encode())
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sane(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	// Keep magnitudes printable without precision loss drama.
	return math.Mod(f, 1e9)
}

// Property: Query.Key is stable under foci permutation.
func TestQuickQueryKeyStable(t *testing.T) {
	f := func(a, b, c string) bool {
		foci := []string{"/" + a, "/" + b, "/" + c}
		q1 := Query{Metric: "m", Foci: foci, Type: "t", Time: TimeRange{Start: 0, End: 1}}
		rev := []string{"/" + c, "/" + b, "/" + a}
		q2 := Query{Metric: "m", Foci: rev, Type: "t", Time: TimeRange{Start: 0, End: 1}}
		return q1.Key() == q2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
