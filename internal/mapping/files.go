package mapping

import (
	"fmt"
	"sort"

	"pperfgrid/internal/flatfile"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/xmlstore"
)

// FlatFileWrapper maps a flat ASCII text dataset — the paper's Presta RMA
// layout — onto the PPerfGrid interfaces via the custom parser in package
// flatfile. Performance Result queries re-read and re-parse the backing
// execution file, which is the per-query cost profile the paper measured
// for this store.
type FlatFileWrapper struct {
	Store *flatfile.Store
}

// AppInfo implements ApplicationWrapper.
func (w *FlatFileWrapper) AppInfo() ([]perfdata.KV, error) {
	meta := w.Store.Meta()
	out := make([]perfdata.KV, 0, len(meta)+1)
	out = append(out, perfdata.KV{Name: "name", Value: w.Store.Name()})
	for _, kv := range meta {
		if kv.Name == "name" {
			continue
		}
		out = append(out, kv)
	}
	return out, nil
}

// NumExecs implements ApplicationWrapper.
func (w *FlatFileWrapper) NumExecs() (int, error) { return w.Store.NumExecs(), nil }

// ExecQueryParams implements ApplicationWrapper by parsing every execution
// header.
func (w *FlatFileWrapper) ExecQueryParams() ([]perfdata.Attribute, error) {
	byName := map[string][]string{}
	for _, id := range w.Store.ExecIDs() {
		e, err := w.Store.ExecutionHeader(id)
		if err != nil {
			return nil, err
		}
		for n, v := range e.Attrs {
			byName[n] = append(byName[n], v)
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]perfdata.Attribute, len(names))
	for i, n := range names {
		out[i] = perfdata.Attribute{Name: n, Values: perfdata.UniqueSorted(byName[n])}
	}
	return out, nil
}

// AllExecIDs implements ApplicationWrapper.
func (w *FlatFileWrapper) AllExecIDs() ([]string, error) { return w.Store.ExecIDs(), nil }

// ExecIDs implements ApplicationWrapper.
func (w *FlatFileWrapper) ExecIDs(attr, value string) ([]string, error) {
	var out []string
	for _, id := range w.Store.ExecIDs() {
		e, err := w.Store.ExecutionHeader(id)
		if err != nil {
			return nil, err
		}
		if v, ok := e.Attrs[attr]; ok && v == value {
			out = append(out, id)
		}
	}
	return out, nil
}

// ExecutionWrapper implements ApplicationWrapper.
func (w *FlatFileWrapper) ExecutionWrapper(id string) (ExecutionWrapper, error) {
	// Validate existence by parsing the header once.
	if _, err := w.Store.ExecutionHeader(id); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchExecution, err)
	}
	return &flatExec{store: w.Store, id: id}, nil
}

type flatExec struct {
	store *flatfile.Store
	id    string
}

func (e *flatExec) header() (*flatfile.Execution, error) {
	return e.store.ExecutionHeader(e.id)
}

func (e *flatExec) full() (*memoryExec, error) {
	fe, err := e.store.Execution(e.id)
	if err != nil {
		return nil, err
	}
	return &memoryExec{id: fe.ID, attrs: fe.Attrs, time: fe.Time, results: fe.Results}, nil
}

func (e *flatExec) Info() ([]perfdata.KV, error) {
	h, err := e.header()
	if err != nil {
		return nil, err
	}
	ex := perfdata.Execution{ID: h.ID, Attrs: h.Attrs}
	return ex.Info(), nil
}

func (e *flatExec) Foci() ([]string, error) {
	m, err := e.full()
	if err != nil {
		return nil, err
	}
	return m.Foci()
}

func (e *flatExec) Metrics() ([]string, error) {
	m, err := e.full()
	if err != nil {
		return nil, err
	}
	return m.Metrics()
}

func (e *flatExec) Types() ([]string, error) {
	m, err := e.full()
	if err != nil {
		return nil, err
	}
	return m.Types()
}

func (e *flatExec) TimeStartEnd() (perfdata.TimeRange, error) {
	h, err := e.header()
	if err != nil {
		return perfdata.TimeRange{}, err
	}
	return h.Time, nil
}

func (e *flatExec) PerformanceResults(q perfdata.Query) ([]perfdata.Result, error) {
	return collect(e, q)
}

// AppendPerformanceResults implements ResultAppender: the store's
// byte-level re-parse filters records into dst with pooled scratch,
// keeping the paper's parse-per-query cost model without its per-line
// garbage.
func (e *flatExec) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	return e.store.QueryAppend(e.id, q, dst)
}

// PublishResults implements ResultWriter by appending data records to the
// execution's backing file, byte-identical to re-encoding the extended
// execution.
func (e *flatExec) PublishResults(rs []perfdata.Result) error {
	return e.store.AppendResults(e.id, rs)
}

// XMLWrapper maps a native-XML dataset onto the PPerfGrid interfaces.
// Result queries re-decode the document, per the store's cost model.
type XMLWrapper struct {
	Store *xmlstore.Store
}

// AppInfo implements ApplicationWrapper.
func (w *XMLWrapper) AppInfo() ([]perfdata.KV, error) {
	meta := w.Store.Meta()
	out := make([]perfdata.KV, 0, len(meta)+1)
	out = append(out, perfdata.KV{Name: "name", Value: w.Store.Name()})
	for _, kv := range meta {
		if kv.Name == "name" {
			continue
		}
		out = append(out, kv)
	}
	return out, nil
}

// NumExecs implements ApplicationWrapper.
func (w *XMLWrapper) NumExecs() (int, error) { return w.Store.NumExecs(), nil }

// ExecQueryParams implements ApplicationWrapper.
func (w *XMLWrapper) ExecQueryParams() ([]perfdata.Attribute, error) {
	byName := map[string][]string{}
	for _, id := range w.Store.ExecIDs() {
		e, err := w.Store.Execution(id)
		if err != nil {
			return nil, err
		}
		for n, v := range e.Attrs {
			byName[n] = append(byName[n], v)
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]perfdata.Attribute, len(names))
	for i, n := range names {
		out[i] = perfdata.Attribute{Name: n, Values: perfdata.UniqueSorted(byName[n])}
	}
	return out, nil
}

// AllExecIDs implements ApplicationWrapper.
func (w *XMLWrapper) AllExecIDs() ([]string, error) { return w.Store.ExecIDs(), nil }

// ExecIDs implements ApplicationWrapper.
func (w *XMLWrapper) ExecIDs(attr, value string) ([]string, error) {
	var out []string
	for _, id := range w.Store.ExecIDs() {
		e, err := w.Store.Execution(id)
		if err != nil {
			return nil, err
		}
		if v, ok := e.Attrs[attr]; ok && v == value {
			out = append(out, id)
		}
	}
	return out, nil
}

// ExecutionWrapper implements ApplicationWrapper.
func (w *XMLWrapper) ExecutionWrapper(id string) (ExecutionWrapper, error) {
	if _, err := w.Store.Execution(id); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchExecution, err)
	}
	return &xmlExec{store: w.Store, id: id}, nil
}

type xmlExec struct {
	store *xmlstore.Store
	id    string
}

func (e *xmlExec) full() (*memoryExec, error) {
	xe, err := e.store.Execution(e.id)
	if err != nil {
		return nil, err
	}
	return &memoryExec{id: xe.ID, attrs: xe.Attrs, time: xe.Time, results: xe.Results}, nil
}

func (e *xmlExec) Info() ([]perfdata.KV, error) {
	m, err := e.full()
	if err != nil {
		return nil, err
	}
	return m.Info()
}

func (e *xmlExec) Foci() ([]string, error) {
	m, err := e.full()
	if err != nil {
		return nil, err
	}
	return m.Foci()
}

func (e *xmlExec) Metrics() ([]string, error) {
	m, err := e.full()
	if err != nil {
		return nil, err
	}
	return m.Metrics()
}

func (e *xmlExec) Types() ([]string, error) {
	m, err := e.full()
	if err != nil {
		return nil, err
	}
	return m.Types()
}

func (e *xmlExec) TimeStartEnd() (perfdata.TimeRange, error) {
	m, err := e.full()
	if err != nil {
		return perfdata.TimeRange{}, err
	}
	return m.time, nil
}

func (e *xmlExec) PerformanceResults(q perfdata.Query) ([]perfdata.Result, error) {
	return collect(e, q)
}

// AppendPerformanceResults implements ResultAppender by filtering the
// re-decoded document into dst.
func (e *xmlExec) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	m, err := e.full()
	if err != nil {
		return dst, err
	}
	return m.AppendPerformanceResults(q, dst)
}
