package mapping

import (
	"fmt"

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
	return fileAppInfo(w.Store.Name(), w.Store.Meta()), nil
}

// NumExecs implements ApplicationWrapper.
func (w *FlatFileWrapper) NumExecs() (int, error) { return w.Store.NumExecs(), nil }

// attrs walks the executions' attributes, parsing every execution header.
func (w *FlatFileWrapper) attrs(visit func(id string, attrs map[string]string)) error {
	for _, id := range w.Store.ExecIDs() {
		e, err := w.Store.ExecutionHeader(id)
		if err != nil {
			return err
		}
		visit(id, e.Attrs)
	}
	return nil
}

// ExecQueryParams implements ApplicationWrapper by parsing every execution
// header.
func (w *FlatFileWrapper) ExecQueryParams() ([]perfdata.Attribute, error) {
	return execAttrs(w.attrs).queryParams()
}

// AllExecIDs implements ApplicationWrapper.
func (w *FlatFileWrapper) AllExecIDs() ([]string, error) { return w.Store.ExecIDs(), nil }

// ExecIDs implements ApplicationWrapper.
func (w *FlatFileWrapper) ExecIDs(attr, value string) ([]string, error) {
	return execAttrs(w.attrs).matching(attr, value)
}

// ExecutionWrapper implements ApplicationWrapper.
func (w *FlatFileWrapper) ExecutionWrapper(id string) (ExecutionWrapper, error) {
	// Validate existence by parsing the header once.
	if _, err := w.Store.ExecutionHeader(id); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchExecution, err)
	}
	return &flatExec{
		snapshotExec: func() (*memoryExec, error) {
			fe, err := w.Store.Execution(id)
			if err != nil {
				return nil, err
			}
			return &memoryExec{id: fe.ID, attrs: fe.Attrs, time: fe.Time, results: fe.Results}, nil
		},
		store: w.Store,
		id:    id,
	}, nil
}

// flatExec answers Foci, Metrics and Types from a full parse; Info and
// TimeStartEnd parse only the header, and getPR filters records during
// the store's byte-level re-parse.
type flatExec struct {
	snapshotExec
	store *flatfile.Store
	id    string
}

func (e *flatExec) Info() ([]perfdata.KV, error) {
	h, err := e.store.ExecutionHeader(e.id)
	if err != nil {
		return nil, err
	}
	ex := perfdata.Execution{ID: h.ID, Attrs: h.Attrs}
	return ex.Info(), nil
}

func (e *flatExec) TimeStartEnd() (perfdata.TimeRange, error) {
	h, err := e.store.ExecutionHeader(e.id)
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
	return fileAppInfo(w.Store.Name(), w.Store.Meta()), nil
}

// NumExecs implements ApplicationWrapper.
func (w *XMLWrapper) NumExecs() (int, error) { return w.Store.NumExecs(), nil }

// attrs walks the executions' attributes, decoding every execution.
func (w *XMLWrapper) attrs(visit func(id string, attrs map[string]string)) error {
	for _, id := range w.Store.ExecIDs() {
		e, err := w.Store.Execution(id)
		if err != nil {
			return err
		}
		visit(id, e.Attrs)
	}
	return nil
}

// ExecQueryParams implements ApplicationWrapper.
func (w *XMLWrapper) ExecQueryParams() ([]perfdata.Attribute, error) {
	return execAttrs(w.attrs).queryParams()
}

// AllExecIDs implements ApplicationWrapper.
func (w *XMLWrapper) AllExecIDs() ([]string, error) { return w.Store.ExecIDs(), nil }

// ExecIDs implements ApplicationWrapper.
func (w *XMLWrapper) ExecIDs(attr, value string) ([]string, error) {
	return execAttrs(w.attrs).matching(attr, value)
}

// ExecutionWrapper implements ApplicationWrapper. Every operation
// re-decodes the document, and getPR filters the decoded results.
func (w *XMLWrapper) ExecutionWrapper(id string) (ExecutionWrapper, error) {
	if _, err := w.Store.Execution(id); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchExecution, err)
	}
	return snapshotExec(func() (*memoryExec, error) {
		xe, err := w.Store.Execution(id)
		if err != nil {
			return nil, err
		}
		return &memoryExec{id: xe.ID, attrs: xe.Attrs, time: xe.Time, results: xe.Results}, nil
	}), nil
}

// fileAppInfo is AppInfo for a file-backed store: the application name
// first, then the store's metadata minus any duplicate name.
func fileAppInfo(name string, meta []perfdata.KV) []perfdata.KV {
	out := make([]perfdata.KV, 0, len(meta)+1)
	out = append(out, perfdata.KV{Name: "name", Value: name})
	for _, kv := range meta {
		if kv.Name != "name" {
			out = append(out, kv)
		}
	}
	return out
}
