package flatfile

import (
	"strings"
	"testing"

	"pperfgrid/internal/perfdata"
)

// FuzzQueryAppend holds the byte-level scan to its oracle on arbitrary
// execution-file bytes and query fields: Store.Query and queryOracle must
// both fail, or both succeed with the same rows, and neither may panic.
// foci is a comma-separated focus list; empty means no focus filter.
func FuzzQueryAppend(f *testing.F) {
	good := "execution e1\nattr np 4\ntimerange 0 100\ncolumns metric focus type start end value\n" +
		"data bandwidth /Process/0 presta 0 10 5.5\ndata latency /Code/MPI/MPI_Put vampir 5 20 -1e3\nend\n"
	f.Add([]byte(good), "bandwidth", "", perfdata.UndefinedType, 0.0, 100.0)
	f.Add([]byte(good), "latency", "/Code/MPI", "vampir", 10.0, 15.0)
	f.Add([]byte(good), "bandwidth", "/Process/1,/", "presta", 0.0, 0.0)
	f.Add([]byte("# c\n\n"+good), "bandwidth", "/Process/0/", perfdata.UndefinedType, -1.0, 1.0)
	f.Add([]byte(strings.Replace(good, "5.5", "NaN", 1)), "bandwidth", "", perfdata.UndefinedType, 0.0, 100.0)
	f.Add([]byte(strings.Replace(good, "0 10 5.5", "0 ten 5.5", 1)), "bandwidth", "", "presta", 0.0, 100.0)
	f.Add([]byte(strings.Replace(good, "end\n", "", 1)), "latency", "", perfdata.UndefinedType, 0.0, 100.0)
	f.Add([]byte(strings.Replace(good, "execution e1", "execution other", 1)), "bandwidth", "", perfdata.UndefinedType, 0.0, 100.0)
	f.Add([]byte(strings.Replace(good, "attr np 4", "attr", 1)), "bandwidth", "", perfdata.UndefinedType, 0.0, 100.0)
	f.Add([]byte(strings.Replace(good, "timerange 0 100", "timerange 100 0", 1)), "bandwidth", "", perfdata.UndefinedType, 0.0, 100.0)
	f.Add([]byte("execution e1\ndata a / t 0 1 2\nend\n"), "a", "/", "t", 0.0, 1.0)
	f.Add([]byte("execution e1\ncolumns metric focus type start end value\ndata a / t 0 1 2\nend\n"), "a", "", perfdata.UndefinedType, 0.0, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, metric, foci, typ string, start, end float64) {
		s, err := OpenFiles(map[string][]byte{
			IndexFile:     []byte("application a\nexecution e1 exec_e1.txt\n"),
			"exec_e1.txt": data,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		q := perfdata.Query{Metric: metric, Type: typ, Time: perfdata.TimeRange{Start: start, End: end}}
		if foci != "" {
			q.Foci = strings.Split(foci, ",")
		}
		want, werr := queryOracle(s, "e1", q)
		got, gerr := s.Query("e1", q)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error divergence: byte-path %v, oracle %v", gerr, werr)
		}
		if werr == nil && !sameResults(got, want) {
			t.Fatalf("result divergence:\nbyte-path %v\noracle    %v", got, want)
		}
	})
}

// sameResults compares result lists with NaN equal to NaN, which
// reflect.DeepEqual does not do.
func sameResults(a, b []perfdata.Result) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return x == y || (x != x && y != y) }
	for i := range a {
		x, y := a[i], b[i]
		if x.Metric != y.Metric || x.Focus != y.Focus || x.Type != y.Type ||
			!same(x.Time.Start, y.Time.Start) || !same(x.Time.End, y.Time.End) || !same(x.Value, y.Value) {
			return false
		}
	}
	return true
}
