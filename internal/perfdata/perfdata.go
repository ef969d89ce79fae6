// Package perfdata defines the common value types of the PPerfGrid
// ontology: application metadata, execution attribute sets, foci, and
// performance results.
//
// The paper's semantic layer abstracts every parallel-performance dataset
// into Applications (programs under study), Executions (individual runs,
// described by attribute/value pairs), and Performance Results (one metric,
// for one or more foci, over a time interval, collected by one tool type).
// All PortType operations exchange these values as arrays of strings with
// '|'-delimited fields; this package is the single place that defines and
// round-trips those encodings.
package perfdata

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Sep is the field delimiter used in all wire encodings, per the paper's
// Application/Execution PortType semantics ("delimited by the '|' character").
const Sep = "|"

// UndefinedType is the conventional Type value for results whose collecting
// tool is unknown, as seen in the paper's cache-key example.
const UndefinedType = "UNDEFINED"

// KV is one name/value metadata pair, e.g. {"name", "HPL"} or
// {"version", "1.2"}. Application getAppInfo and Execution getInfo return
// arrays of these.
type KV struct {
	Name  string
	Value string
}

// Encode renders the pair in wire form "name|value".
func (kv KV) Encode() string { return kv.Name + Sep + kv.Value }

// ParseKV parses "name|value". The value may itself contain '|' characters;
// only the first separator splits.
func ParseKV(s string) (KV, error) {
	i := strings.Index(s, Sep)
	if i < 0 {
		return KV{}, fmt.Errorf("perfdata: malformed key/value %q", s)
	}
	return KV{Name: s[:i], Value: s[i+1:]}, nil
}

// EncodeKVs encodes a metadata list.
func EncodeKVs(kvs []KV) []string {
	out := make([]string, len(kvs))
	for i, kv := range kvs {
		out[i] = kv.Encode()
	}
	return out
}

// ParseKVs parses a metadata list, failing on the first malformed entry.
func ParseKVs(ss []string) ([]KV, error) {
	out := make([]KV, len(ss))
	for i, s := range ss {
		kv, err := ParseKV(s)
		if err != nil {
			return nil, err
		}
		out[i] = kv
	}
	return out, nil
}

// Attribute is one execution-describing attribute together with the set of
// all unique values it takes across a data store, as returned by
// getExecQueryParams. The wire form is "name|v1|v2|...".
type Attribute struct {
	Name   string
	Values []string
}

// Encode renders the attribute in wire form.
func (a Attribute) Encode() string {
	return a.Name + Sep + strings.Join(a.Values, Sep)
}

// ParseAttribute parses "name|v1|v2|...". An attribute with no values
// ("name") is legal and yields an empty value set.
func ParseAttribute(s string) (Attribute, error) {
	if s == "" {
		return Attribute{}, errors.New("perfdata: empty attribute")
	}
	parts := strings.Split(s, Sep)
	a := Attribute{Name: parts[0]}
	if a.Name == "" {
		return Attribute{}, fmt.Errorf("perfdata: attribute %q has empty name", s)
	}
	if len(parts) > 1 {
		a.Values = parts[1:]
	}
	return a, nil
}

// NormalizeValues sorts and deduplicates the attribute's value set in
// place, enforcing the PortType requirement that value sets contain no
// duplicates.
func (a *Attribute) NormalizeValues() {
	sort.Strings(a.Values)
	a.Values = dedupSorted(a.Values)
}

func dedupSorted(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// Execution is one run of an application: a unique ID plus its describing
// attributes.
type Execution struct {
	ID    string
	Attrs map[string]string
}

// Matches reports whether the execution's attribute equals the given value.
// A missing attribute never matches.
func (e Execution) Matches(attr, value string) bool {
	v, ok := e.Attrs[attr]
	return ok && v == value
}

// Info renders the execution's attributes as sorted metadata pairs, the
// shape returned by the Execution PortType's getInfo operation.
func (e Execution) Info() []KV {
	names := make([]string, 0, len(e.Attrs))
	for n := range e.Attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]KV, 0, len(names)+1)
	out = append(out, KV{Name: "id", Value: e.ID})
	for _, n := range names {
		out = append(out, KV{Name: n, Value: e.Attrs[n]})
	}
	return out
}

// TimeRange is a half-open measurement interval [Start, End) in seconds
// from the start of the execution.
type TimeRange struct {
	Start float64
	End   float64
}

// Contains reports whether t lies in the interval.
func (r TimeRange) Contains(t float64) bool { return t >= r.Start && t < r.End }

// Overlaps reports whether two intervals intersect.
func (r TimeRange) Overlaps(o TimeRange) bool { return r.Start < o.End && o.Start < r.End }

// Encode renders the range as "start-end" with full float precision, the
// format used in Performance Result cache keys (e.g. "0.0-11.047856").
func (r TimeRange) Encode() string {
	return formatTime(r.Start) + "-" + formatTime(r.End)
}

// AppendEncode appends the Encode form to dst without building any
// intermediate string. The output bytes are identical to Encode's.
func (r TimeRange) AppendEncode(dst []byte) []byte {
	dst = appendTime(dst, r.Start)
	dst = append(dst, '-')
	return appendTime(dst, r.End)
}

func formatTime(f float64) string {
	s := strconv.FormatFloat(f, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// appendTime is the allocation-free twin of formatTime.
func appendTime(dst []byte, f float64) []byte {
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, 'f', -1, 64)
	for _, c := range dst[start:] {
		if c == '.' {
			return dst
		}
	}
	return append(dst, '.', '0')
}

// ParseTimeRange parses "start-end". Either bound may be negative
// ("-2.0--1.0"): a float holds a '-' only as its leading sign or as its
// exponent's sign, so the separator is the first '-' after index 0 that
// does not follow an exponent marker (e, E, or a hex float's p, P) or
// another '-'.
func ParseTimeRange(s string) (TimeRange, error) {
	i := -1
	for j := 1; j < len(s) && i < 0; j++ {
		if s[j] == '-' && !strings.ContainsRune("eEpP-", rune(s[j-1])) {
			i = j
		}
	}
	if i < 0 {
		return TimeRange{}, fmt.Errorf("perfdata: malformed time range %q", s)
	}
	start, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return TimeRange{}, fmt.Errorf("perfdata: time range %q: %w", s, err)
	}
	end, err := strconv.ParseFloat(s[i+1:], 64)
	if err != nil {
		return TimeRange{}, fmt.Errorf("perfdata: time range %q: %w", s, err)
	}
	if end < start {
		return TimeRange{}, fmt.Errorf("perfdata: time range %q ends before it starts", s)
	}
	return TimeRange{Start: start, End: end}, nil
}

// Result is one Performance Result: the value of one metric, at one focus,
// over one time interval, collected by one tool type.
type Result struct {
	Metric string
	Focus  string
	Time   TimeRange
	Type   string
	Value  float64
}

// Encode renders the result in wire form
// "metric|focus|type|start-end|value".
func (r Result) Encode() string {
	return strings.Join([]string{
		r.Metric, r.Focus, r.Type, r.Time.Encode(),
		strconv.FormatFloat(r.Value, 'g', -1, 64),
	}, Sep)
}

// AppendEncode appends the wire form to dst without building the
// intermediate field strings Encode does. The output bytes are identical
// to Encode's; differential tests pin the equivalence.
func (r Result) AppendEncode(dst []byte) []byte {
	dst = append(dst, r.Metric...)
	dst = append(dst, '|')
	dst = append(dst, r.Focus...)
	dst = append(dst, '|')
	dst = append(dst, r.Type...)
	dst = append(dst, '|')
	dst = r.Time.AppendEncode(dst)
	dst = append(dst, '|')
	return strconv.AppendFloat(dst, r.Value, 'g', -1, 64)
}

// ParseResult parses the wire form produced by Encode.
func ParseResult(s string) (Result, error) {
	var r Result
	if err := ParseResultInto(s, &r); err != nil {
		return Result{}, err
	}
	return r, nil
}

// ParseResultInto parses the wire form produced by Encode into *r by
// walking separator indexes: the field values are substrings sharing s's
// backing array, so a well-formed parse allocates nothing. It accepts
// exactly the strings ParseResult accepted (differential tests pin the
// equivalence, errors included).
func ParseResultInto(s string, r *Result) error {
	i1 := strings.IndexByte(s, '|')
	if i1 < 0 {
		return malformedResult(s, 1)
	}
	i2 := strings.IndexByte(s[i1+1:], '|')
	if i2 < 0 {
		return malformedResult(s, 2)
	}
	i2 += i1 + 1
	i3 := strings.IndexByte(s[i2+1:], '|')
	if i3 < 0 {
		return malformedResult(s, 3)
	}
	i3 += i2 + 1
	i4 := strings.IndexByte(s[i3+1:], '|')
	if i4 < 0 {
		return malformedResult(s, 4)
	}
	i4 += i3 + 1
	if strings.IndexByte(s[i4+1:], '|') >= 0 {
		return malformedResult(s, strings.Count(s, Sep)+1)
	}
	tr, err := ParseTimeRange(s[i3+1 : i4])
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(s[i4+1:], 64)
	if err != nil {
		return fmt.Errorf("perfdata: result %q: bad value: %w", s, err)
	}
	r.Metric = s[:i1]
	r.Focus = s[i1+1 : i2]
	r.Type = s[i2+1 : i3]
	r.Time = tr
	r.Value = v
	return nil
}

// malformedResult reproduces ParseResult's historical field-count error.
func malformedResult(s string, fields int) error {
	return fmt.Errorf("perfdata: malformed result %q: want 5 fields, got %d", s, fields)
}

// EncodeResults encodes a result list.
func EncodeResults(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Encode()
	}
	return out
}

// ParseResults parses a result list, failing on the first malformed entry.
func ParseResults(ss []string) ([]Result, error) {
	out := make([]Result, len(ss))
	for i, s := range ss {
		if err := ParseResultInto(s, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Query is one Performance Result query: the [metric, foci, time, type]
// tuple accepted by the Execution PortType's getPR operation.
type Query struct {
	Metric string
	Foci   []string
	Time   TimeRange
	Type   string
}

// Key renders the query as the canonical cache-key string used by the
// Performance Results cache (section 5.3.2.3 of the paper), e.g.
// "func_calls|/Code/MPI/MPI_Allgather|UNDEFINED|0.0-11.047856".
// Foci are sorted so that logically identical queries share a key.
func (q Query) Key() string {
	foci := make([]string, len(q.Foci))
	copy(foci, q.Foci)
	sort.Strings(foci)
	return strings.Join([]string{
		q.Metric, strings.Join(foci, ","), q.Type, q.Time.Encode(),
	}, Sep)
}

// WireParams renders the query as the positional getPR argument list:
// metric, start, end, type, focus... .
func (q Query) WireParams() []string {
	out := make([]string, 0, 4+len(q.Foci))
	out = append(out, q.Metric, formatTime(q.Time.Start), formatTime(q.Time.End), q.Type)
	out = append(out, q.Foci...)
	return out
}

// ParseQueryParams decodes the positional getPR argument list.
func ParseQueryParams(args []string) (Query, error) {
	if len(args) < 4 {
		return Query{}, fmt.Errorf("perfdata: getPR requires at least 4 args, got %d", len(args))
	}
	start, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		return Query{}, fmt.Errorf("perfdata: getPR start time %q: %w", args[1], err)
	}
	end, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return Query{}, fmt.Errorf("perfdata: getPR end time %q: %w", args[2], err)
	}
	if end < start {
		return Query{}, fmt.Errorf("perfdata: getPR time range ends (%v) before it starts (%v)", end, start)
	}
	q := Query{Metric: args[0], Time: TimeRange{Start: start, End: end}, Type: args[3]}
	if len(args) > 4 {
		q.Foci = append(q.Foci, args[4:]...)
	}
	return q, nil
}

// Matches reports whether a stored result satisfies the query. An empty
// query focus list matches any focus; the UNDEFINED type matches any type.
func (q Query) Matches(r Result) bool {
	if r.Metric != q.Metric {
		return false
	}
	if q.Type != UndefinedType && r.Type != q.Type {
		return false
	}
	if !q.Time.Overlaps(r.Time) {
		return false
	}
	if len(q.Foci) == 0 {
		return true
	}
	for _, f := range q.Foci {
		if FocusMatches(f, r.Focus) {
			return true
		}
	}
	return false
}

// FocusMatches reports whether the stored focus path lies at or below the
// queried focus in the resource hierarchy. Foci are slash paths rooted at
// "/", e.g. "/Process/27" or "/Code/MPI/MPI_Comm_rank"; querying "/Code/MPI"
// matches any result recorded under that subtree.
func FocusMatches(query, stored string) bool {
	if query == "/" || query == "" || query == stored {
		return true
	}
	return strings.HasPrefix(stored, strings.TrimSuffix(query, "/")+"/")
}

// FocusDepth returns the number of components in a focus path; "/" has
// depth zero.
func FocusDepth(focus string) int {
	f := strings.Trim(focus, "/")
	if f == "" {
		return 0
	}
	return strings.Count(f, "/") + 1
}

// UniqueSorted returns the sorted set of unique strings in ss, the shape
// required by every discovery operation (getFoci, getMetrics, getTypes).
func UniqueSorted(ss []string) []string {
	out := make([]string, len(ss))
	copy(out, ss)
	sort.Strings(out)
	return dedupSorted(out)
}
