package perfdata

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// encodeOracle is the retained string-based wire encoding AppendEncode
// must reproduce byte for byte.
func encodeOracle(r Result) string {
	return strings.Join([]string{
		r.Metric, r.Focus, r.Type, r.Time.Encode(),
		strconv.FormatFloat(r.Value, 'g', -1, 64),
	}, Sep)
}

// parseOracle is the retained strings.Split parser ParseResultInto must
// agree with, success and failure alike.
func parseOracle(s string) (Result, error) {
	parts := strings.Split(s, Sep)
	if len(parts) != 5 {
		return Result{}, malformedResult(s, len(parts))
	}
	tr, err := ParseTimeRange(parts[3])
	if err != nil {
		return Result{}, err
	}
	v, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return Result{}, err
	}
	return Result{Metric: parts[0], Focus: parts[1], Type: parts[2], Time: tr, Value: v}, nil
}

// oldParseTimeRange is the previous ParseTimeRange, which split at the
// last '-' and so rejected every negative end. ParseTimeRange must accept
// every string it accepted, with the same values.
func oldParseTimeRange(s string) (TimeRange, error) {
	i := strings.LastIndex(s, "-")
	if i <= 0 {
		return TimeRange{}, fmt.Errorf("malformed time range %q", s)
	}
	start, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return TimeRange{}, err
	}
	end, err := strconv.ParseFloat(s[i+1:], 64)
	if err != nil {
		return TimeRange{}, err
	}
	if end < start {
		return TimeRange{}, fmt.Errorf("time range %q ends before it starts", s)
	}
	return TimeRange{Start: start, End: end}, nil
}

// sameBits compares two floats bit for bit (NaN equals itself, -0 does
// not equal 0).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameResult(a, b Result) bool {
	return a.Metric == b.Metric && a.Focus == b.Focus && a.Type == b.Type &&
		sameBits(a.Time.Start, b.Time.Start) && sameBits(a.Time.End, b.Time.End) && sameBits(a.Value, b.Value)
}

func TestTimeRangeParseMatchesOldParser(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []string{
		"0.0-1.0", "-2.0-1.0", "-2.0--1.0", "1e-5-2.0", "1E-5-2e5", "-1e-5-0",
		"0x1p-2-3.0", "-0x1P-2-0x1p+1", "-inf-inf", "-Inf--1.0", "nan-nan", "1.0-nan",
		"5--3", "--5-3", "1.0-2e-5", "1-2-3", "-", "--", "-1-", "e-1", "1e--2",
	}
	fs := []string{"0", "1.5", "-2.25", "1e-3", "-4E-2", "0x1p-3", "-0x1.8p-1", "inf", "-Inf", "NaN", "1e", "-", ""}
	for i := 0; i < 5000; i++ {
		cases = append(cases, fs[rng.Intn(len(fs))]+"-"+fs[rng.Intn(len(fs))])
	}
	accepted := 0
	for _, s := range cases {
		old, err := oldParseTimeRange(s)
		if err != nil {
			continue
		}
		accepted++
		got, err := ParseTimeRange(s)
		if err != nil {
			t.Fatalf("ParseTimeRange(%q): %v; the old parser accepted it as %+v", s, err, old)
		}
		if !sameBits(got.Start, old.Start) || !sameBits(got.End, old.End) {
			t.Fatalf("ParseTimeRange(%q) = %+v, old parser %+v", s, got, old)
		}
	}
	if accepted < 100 {
		t.Fatalf("old parser accepted only %d cases; the comparison is too thin", accepted)
	}
}

func randomResult(rng *rand.Rand) Result {
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	start := rng.Float64() * 100
	return Result{
		Metric: pick([]string{"func_calls", "gflops", "bandwidth", "wall_clock", "m"}),
		Focus:  pick([]string{"/", "/Process/27", "/Code/MPI/MPI_Allgather", "/Machine/node0/cpu1", "f"}),
		Type:   pick([]string{"UNDEFINED", "vampir", "hpl", "presta"}),
		Time:   TimeRange{Start: start, End: start + rng.Float64()*1000},
		Value:  rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6)),
	}
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var dst []byte
	for i := 0; i < 2000; i++ {
		r := randomResult(rng)
		dst = r.AppendEncode(dst[:0])
		if got, want := string(dst), encodeOracle(r); got != want {
			t.Fatalf("AppendEncode = %q, Encode oracle = %q", got, want)
		}
		if got, want := r.Encode(), encodeOracle(r); got != want {
			t.Fatalf("Encode = %q, oracle = %q", got, want)
		}
	}
	// Edge values the 'f'/'g' formatters treat specially.
	for _, r := range []Result{
		{Metric: "m", Focus: "/", Type: "t", Time: TimeRange{Start: 0, End: 0}, Value: 0},
		{Metric: "m", Focus: "/", Type: "t", Time: TimeRange{Start: 1e21, End: 2e21}, Value: 1e-300},
		{Metric: "m", Focus: "/", Type: "t", Time: TimeRange{Start: 0.1, End: 11.047856}, Value: math.MaxFloat64},
		{Metric: "", Focus: "", Type: "", Time: TimeRange{Start: 3, End: 3}, Value: -0.0},
	} {
		if got, want := string(r.AppendEncode(nil)), encodeOracle(r); got != want {
			t.Fatalf("AppendEncode = %q, Encode oracle = %q", got, want)
		}
	}
}

func TestTimeRangeAppendEncodeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		tr := TimeRange{Start: rng.Float64() * 1e6, End: rng.Float64() * 1e6}
		if i%3 == 0 {
			tr.Start = float64(rng.Intn(1000)) // integral: formatTime adds ".0"
			tr.End = float64(rng.Intn(1000))
		}
		if got, want := string(tr.AppendEncode(nil)), tr.Encode(); got != want {
			t.Fatalf("TimeRange.AppendEncode = %q, Encode = %q", got, want)
		}
	}
}

// parseCases are the fixed wire strings ParseResultInto and parseOracle
// must agree on; they also seed FuzzParseResultInto.
var parseCases = []string{
	"", "|", "||||", "|||||", "a|b|c|d|e|f",
	"m|f|t|0.0-1.0|nope",
	"m|f|t|bad|1",
	"m|f|t|1.0-0.5|1", // ends before it starts
	"m|f|t|0.0-1.0|1.5",
	"func_calls|/Code/MPI|UNDEFINED|0.0-11.047856|42",
	"m|f|t|-2.0--1.0|1", // negative end
}

func TestParseResultIntoMatchesSplitOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := append([]string(nil), parseCases...)
	for i := 0; i < 2000; i++ {
		cases = append(cases, encodeOracle(randomResult(rng)))
	}
	// Mutated garbage: random separator counts.
	for i := 0; i < 500; i++ {
		n := rng.Intn(8)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = encodeOracle(randomResult(rng))[:rng.Intn(6)]
		}
		cases = append(cases, strings.Join(parts, Sep))
	}
	for _, s := range cases {
		want, wantErr := parseOracle(s)
		var got Result
		gotErr := ParseResultInto(s, &got)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("ParseResultInto(%q) err = %v, oracle err = %v", s, gotErr, wantErr)
		}
		if gotErr == nil && got != want {
			t.Fatalf("ParseResultInto(%q) = %+v, oracle = %+v", s, got, want)
		}
	}
}

func TestParseResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		r := randomResult(rng)
		got, err := ParseResult(r.Encode())
		if err != nil {
			t.Fatalf("round trip %+v: %v", r, err)
		}
		if got != r {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
	}
}

// TestAppendEncodeAllocs pins the zero-garbage contract: with capacity in
// dst, AppendEncode allocates nothing, and a well-formed ParseResultInto
// allocates nothing (fields are substrings of the input).
func TestAppendEncodeAllocs(t *testing.T) {
	r := Result{
		Metric: "func_calls", Focus: "/Code/MPI/MPI_Allgather", Type: "vampir",
		Time: TimeRange{Start: 0, End: 11.047856}, Value: 129.75,
	}
	dst := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		dst = r.AppendEncode(dst[:0])
	}); n != 0 {
		t.Fatalf("AppendEncode allocates %.1f times per run, want 0", n)
	}
	s := r.Encode()
	var out Result
	if n := testing.AllocsPerRun(200, func() {
		if err := ParseResultInto(s, &out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParseResultInto allocates %.1f times per run, want 0", n)
	}
}

// FuzzParseResultInto checks the zero-copy parser against parseOracle
// (error versus value, floats compared by bits), the time range against
// the old last-'-' parser on every string that one accepted, and the
// round trip ParseResult(r.Encode()) == r for every accepted result with
// finite times. A panic anywhere fails the target.
func FuzzParseResultInto(f *testing.F) {
	for _, s := range parseCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := parseOracle(s)
		var got Result
		gotErr := ParseResultInto(s, &got)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("ParseResultInto(%q) err = %v, oracle err = %v", s, gotErr, wantErr)
		}
		if parts := strings.Split(s, Sep); len(parts) == 5 {
			if old, err := oldParseTimeRange(parts[3]); err == nil {
				tr, err := ParseTimeRange(parts[3])
				if err != nil || !sameBits(tr.Start, old.Start) || !sameBits(tr.End, old.End) {
					t.Fatalf("ParseTimeRange(%q) = %+v, %v; old parser %+v", parts[3], tr, err, old)
				}
			}
		}
		if gotErr != nil {
			return
		}
		if !sameResult(got, want) {
			t.Fatalf("ParseResultInto(%q) = %+v, oracle = %+v", s, got, want)
		}
		if math.IsInf(got.Time.Start, 0) || math.IsInf(got.Time.End, 0) ||
			math.IsNaN(got.Time.Start) || math.IsNaN(got.Time.End) {
			return // Encode's 'f' format has no finite spelling for these
		}
		back, err := ParseResult(got.Encode())
		if err != nil || !sameResult(back, got) {
			t.Fatalf("round trip of %+v via %q: %+v, %v", got, got.Encode(), back, err)
		}
	})
}
