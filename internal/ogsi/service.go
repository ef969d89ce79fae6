// Package ogsi implements the Open Grid Services Infrastructure core that
// PPerfGrid builds on: stateful transient service instances with unique
// Grid Service Handles, the GridService / Factory / HandleMap /
// NotificationSource / NotificationSink PortTypes of the paper's Table 3,
// soft-state lifetime management, and service data elements. Table 3's
// Registry PortType is the lease-holding registry of package registry.
//
// The paper used the Globus Toolkit 3.2 for this layer; this package is
// the from-scratch substitute, providing the same semantics over the SOAP
// transport of package container. Instance.Serve is the Services Layer's
// one dispatch point: it answers the standard GridService operations,
// validates calls against the WSDL definition, and hands the rest to the
// implementation. A service that implements the optional Server interface
// chooses its own wire path per call — envelope bytes served verbatim or
// encoded straight into the transport's pooled buffer, paged or not —
// while a plain Service answers with string values for the transport to
// encode.
package ogsi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pperfgrid/internal/gsh"
	"pperfgrid/internal/wsdl"
)

// SOAP header entry names of the paged-call protocol. They live here —
// beside the Server contract — so both the transport (package container)
// and services that encode their own paged envelopes name them without an
// import cycle. A request carrying HeaderPageSize or HeaderCursor is a
// paged call; the response's HeaderCursor entry names the remainder of
// the result set (absent when the set is complete).
const (
	// HeaderCursor carries the opaque paging cursor: empty/absent on a
	// fresh call, the service's continuation token afterwards.
	HeaderCursor = "ppg-cursor"
	// HeaderPageSize bounds the number of returned values per page.
	HeaderPageSize = "ppg-pageSize"
	// HeaderDeadline carries the caller's remaining deadline budget in
	// milliseconds (a relative budget, not an absolute timestamp, so
	// clients and servers need no clock synchronization). The transport
	// folds it into the request context before dispatch, and Server
	// implementations propagate it down through their layers — an expired
	// request is turned away before it reaches a data store.
	HeaderDeadline = "ppg-deadline"
)

// Service is the invocation interface every grid service implementation
// provides. All PPerfGrid operations exchange string arrays (see the
// paper's PortType tables), so one dynamic entry point suffices; the
// hosting Instance validates operation names and arity against the
// service's WSDL definition before delegating.
type Service interface {
	Invoke(op string, params []string) ([]string, error)
}

// ServiceFunc adapts a function to the Service interface.
type ServiceFunc func(op string, params []string) ([]string, error)

// Invoke calls f.
func (f ServiceFunc) Invoke(op string, params []string) ([]string, error) {
	return f(op, params)
}

// ServiceDataProvider is optionally implemented by services that publish
// dynamic service data elements (SDEs) beyond the standard ones.
type ServiceDataProvider interface {
	ServiceData() map[string][]string
}

// Call is one invocation as the transport decoded it. Paged marks the
// paged-call protocol (a request carrying HeaderPageSize or HeaderCursor):
// Cursor is empty on a fresh call and names a live result set on a
// continuation, whose Params are then ignored; Limit bounds the values per
// page, 0 meaning the service's default.
type Call struct {
	Op     string
	Params []string
	Paged  bool
	Cursor string
	Limit  int
}

// Reply is a Server's answer. A non-nil Raw is a complete SOAP response
// envelope — the HeaderCursor entry of a continuing page included — that
// the transport writes verbatim; it may alias the buffer passed to Serve.
// Otherwise the transport encodes Values, with a HeaderCursor entry when
// Next (the continuation of a paged result set) is non-empty.
type Reply struct {
	Raw    []byte
	Values []string
	Next   string
}

// Server is the one call contract on both sides of the wire. On the
// provider side it is optionally implemented by services that choose their
// own wire path per call, with paging and raw envelope bytes as parameters
// of the one entry point: the Execution service answers a repeat getPR
// with its cached envelope, encodes a cold one straight into buf, and
// pages large result sets behind a cursor. On the consumer side
// *Instance (the local bypass) and the client stub (container.Stub)
// implement it, so a client reaches a co-located or a remote service
// through the same method.
//
// ctx carries the caller's cancellation and HeaderDeadline budget; the
// implementation propagates it down its own layers. buf is the
// transport's pooled write buffer; a nil buf means "answer with Values" —
// there is no wire to write bytes to, as on every consumer-side call. Raw
// envelope bytes must equal what the transport would encode from the
// equivalent Values, so the two are indistinguishable on the wire. On
// error the buffer's contents are discarded.
//
// A hosted service's Serve runs under Instance.Serve, which guarantees its
// preconditions: buf is non-nil, destroyed instances are rejected, the
// standard GridService operations are answered, and every fresh call
// (empty Cursor) is validated against the WSDL definition. These hold
// only under Instance.Serve, not under a stub, which forwards any call to
// the remote container and leaves the checks to the Instance there.
type Server interface {
	Serve(ctx context.Context, c Call, buf *bytes.Buffer) (Reply, error)
}

// Invoke runs one unpaged call through s with a nil buffer, so the answer
// is values, and returns them — the consumer side's shorthand for Serve.
func Invoke(ctx context.Context, s Server, op string, params ...string) ([]string, error) {
	r, err := s.Serve(ctx, Call{Op: op, Params: params}, nil)
	return r.Values, err
}

// Destroyer is optionally implemented by services that must release
// resources when their hosting instance is destroyed. OnDestroy gets the
// destroyed instance's handle.
type Destroyer interface {
	OnDestroy(gsh.Handle)
}

// Errors returned by instance operations.
var (
	ErrDestroyed        = errors.New("ogsi: service instance destroyed")
	ErrUnknownOperation = errors.New("ogsi: unknown operation")
	ErrNoSuchData       = errors.New("ogsi: no such service data element")
)

// Standard GridService PortType operation names (Table 3).
const (
	OpFindServiceData      = "FindServiceData"
	OpSetTerminationTime   = "SetTerminationTime"
	OpDestroy              = "Destroy"
	OpCreateService        = "CreateService"
	OpCreateServices       = "CreateServices"
	OpFindByHandle         = "FindByHandle"
	OpSubscribe            = "SubscribeToNotificationTopic"
	OpDeliverNotification  = "DeliverNotification"
	OpGetServiceDefinition = "GetServiceDefinition"
)

// TerminationNone is the SetTerminationTime argument meaning "no expiry".
const TerminationNone = "none"

// Instance is one stateful grid service instance: an implementation plus
// its OGSI state (handle, service data, termination time).
type Instance struct {
	handle gsh.Handle
	def    *wsdl.Definition
	impl   Service

	hosting *Hosting // back-pointer for Destroy; nil in unit tests

	mu          sync.Mutex
	created     time.Time
	termination time.Time // zero means no scheduled termination
	destroyed   bool
	serviceData map[string][]string
}

// newInstance builds an instance. The caller supplies the fully formed
// handle and a definition that already includes the GridService PortType.
func newInstance(h gsh.Handle, impl Service, def *wsdl.Definition, hosting *Hosting, now time.Time) *Instance {
	return &Instance{
		handle:      h,
		def:         def,
		impl:        impl,
		hosting:     hosting,
		created:     now,
		serviceData: make(map[string][]string),
	}
}

// Handle returns the instance's GSH.
func (in *Instance) Handle() gsh.Handle { return in.handle }

// Definition returns the instance's service description.
func (in *Instance) Definition() *wsdl.Definition { return in.def }

// Destroyed reports whether the instance has been destroyed.
func (in *Instance) Destroyed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.destroyed
}

// SetServiceData sets one service data element.
func (in *Instance) SetServiceData(name string, values ...string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.serviceData[name] = values
}

// Invoke dispatches an operation in process — the local bypass: Serve
// with no deadline and no wire, so the answer is always the
// implementation's string values.
func (in *Instance) Invoke(op string, params []string) ([]string, error) {
	return Invoke(context.Background(), in, op, params...)
}

// Serve is the instance's one dispatch point. A destroyed instance fails
// with ErrDestroyed; the standard GridService operations are answered by
// the instance itself, as one terminal page of values; every other call is
// validated against the WSDL definition — except a continuation to a
// Server, whose cursor names state the opening call validated — and
// delegated. A Server takes the call with buf; a service without one (or
// an in-process call, whose nil buf has no wire to write bytes to) is
// answered by plain Invoke after a ctx check, its whole result one
// terminal page, so callers can page uniformly against any instance.
func (in *Instance) Serve(ctx context.Context, c Call, buf *bytes.Buffer) (Reply, error) {
	if in.Destroyed() {
		return Reply{}, ErrDestroyed
	}
	if vals, ok, err := in.standard(c.Op, c.Params); ok {
		return Reply{Values: vals}, err
	}
	s, _ := in.impl.(Server)
	if buf == nil {
		s = nil
	}
	if c.Cursor == "" || s == nil {
		if err := in.validate(c.Op, c.Params); err != nil {
			return Reply{}, err
		}
	}
	if s != nil {
		return s.Serve(ctx, c, buf)
	}
	if err := ctx.Err(); err != nil {
		return Reply{}, err
	}
	vals, err := in.impl.Invoke(c.Op, c.Params)
	return Reply{Values: vals}, err
}

// standard answers the GridService PortType operations the instance
// handles itself; ok is false for every other operation.
func (in *Instance) standard(op string, params []string) (vals []string, ok bool, err error) {
	switch op {
	case OpFindServiceData:
		if len(params) != 1 {
			return nil, true, fmt.Errorf("ogsi: %s requires 1 parameter", OpFindServiceData)
		}
		vals, err = in.findServiceData(params[0])
	case OpSetTerminationTime:
		if len(params) != 1 {
			return nil, true, fmt.Errorf("ogsi: %s requires 1 parameter", OpSetTerminationTime)
		}
		vals, err = in.setTerminationTime(params[0])
	case OpDestroy:
		if len(params) != 0 {
			return nil, true, fmt.Errorf("ogsi: %s takes no parameters", OpDestroy)
		}
		err = in.Destroy()
	case OpGetServiceDefinition:
		var data []byte
		if data, err = in.def.Marshal(); err == nil {
			vals = []string{string(data)}
		}
	default:
		return nil, false, nil
	}
	return vals, true, err
}

// validate checks a non-standard operation against the WSDL definition.
func (in *Instance) validate(op string, params []string) error {
	if in.def == nil {
		return nil
	}
	if err := in.def.Validate(op, params); err != nil {
		if errors.Is(err, wsdl.ErrUnknownOperation) {
			return fmt.Errorf("%w: %q", ErrUnknownOperation, op)
		}
		return err
	}
	return nil
}

// findServiceData answers a FindServiceData query. A plain name returns
// that element's values; the reserved queries below expose standard
// introspection data; a query starting with "/" is evaluated by the
// service-data query language in sdePath.
func (in *Instance) findServiceData(query string) ([]string, error) {
	all := in.allServiceData()
	if strings.HasPrefix(query, "/") {
		return sdePath(all, query)
	}
	vals, ok := all[query]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchData, query)
	}
	return vals, nil
}

// allServiceData merges standard, stored, and provider-supplied SDEs.
func (in *Instance) allServiceData() map[string][]string {
	in.mu.Lock()
	term := TerminationNone
	if !in.termination.IsZero() {
		term = in.termination.UTC().Format(time.RFC3339Nano)
	}
	out := map[string][]string{
		"handle":          {in.handle.String()},
		"serviceType":     {in.handle.ServiceType},
		"instanceID":      {in.handle.InstanceID},
		"createdAt":       {in.created.UTC().Format(time.RFC3339Nano)},
		"terminationTime": {term},
	}
	for k, v := range in.serviceData {
		out[k] = append([]string(nil), v...)
	}
	in.mu.Unlock()

	if p, ok := in.impl.(ServiceDataProvider); ok {
		for k, v := range p.ServiceData() {
			out[k] = append([]string(nil), v...)
		}
	}
	return out
}

// setTerminationTime implements SetTerminationTime. The argument is an
// RFC3339 timestamp, or TerminationNone to cancel scheduled termination.
// Per OGSI, the operation returns the (new) current termination time.
func (in *Instance) setTerminationTime(arg string) ([]string, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if arg == TerminationNone || arg == "" {
		in.termination = time.Time{}
		return []string{TerminationNone}, nil
	}
	t, err := time.Parse(time.RFC3339Nano, arg)
	if err != nil {
		// Also accept a relative "+<seconds>" form, convenient for soft-
		// state keepalive without synchronized clocks.
		if strings.HasPrefix(arg, "+") {
			d, derr := time.ParseDuration(strings.TrimPrefix(arg, "+") + "s")
			if derr != nil {
				return nil, fmt.Errorf("ogsi: bad termination time %q", arg)
			}
			t = in.now().Add(d)
		} else {
			return nil, fmt.Errorf("ogsi: bad termination time %q: %v", arg, err)
		}
	}
	in.termination = t
	return []string{t.UTC().Format(time.RFC3339Nano)}, nil
}

func (in *Instance) now() time.Time {
	if in.hosting != nil {
		return in.hosting.now()
	}
	return time.Now()
}

// TerminationTime returns the scheduled termination time; the zero time
// means none is scheduled.
func (in *Instance) TerminationTime() time.Time {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.termination
}

// Destroy terminates the instance: it is removed from its hosting table,
// the implementation's OnDestroy hook runs, and all further invocations
// fail with ErrDestroyed. Destroy is idempotent.
func (in *Instance) Destroy() error {
	in.mu.Lock()
	if in.destroyed {
		in.mu.Unlock()
		return nil
	}
	in.destroyed = true
	in.mu.Unlock()

	if in.hosting != nil {
		in.hosting.remove(in.handle)
	}
	if d, ok := in.impl.(Destroyer); ok {
		d.OnDestroy(in.handle)
	}
	return nil
}

// expired reports whether the instance's termination time has passed.
func (in *Instance) expired(now time.Time) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return !in.termination.IsZero() && now.After(in.termination)
}

// sdePath evaluates the service-data query language used by
// FindServiceData for queries beginning with "/" — the paper's future-work
// XPath mechanism. Supported forms:
//
//	/name            — all values of the element
//	/name[i]         — the i-th value (1-based, per XPath)
//	/name[value=x]   — values equal to x
//	/*               — all element names
//	/name/count()    — the number of values, as a decimal string
func sdePath(all map[string][]string, query string) ([]string, error) {
	q := strings.TrimPrefix(query, "/")
	if q == "*" {
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		return names, nil
	}
	if name, ok := strings.CutSuffix(q, "/count()"); ok {
		vals, exists := all[name]
		if !exists {
			return nil, fmt.Errorf("%w: %q", ErrNoSuchData, name)
		}
		return []string{fmt.Sprintf("%d", len(vals))}, nil
	}
	name, pred, hasPred := strings.Cut(q, "[")
	vals, exists := all[name]
	if !exists {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchData, name)
	}
	if !hasPred {
		return vals, nil
	}
	pred, ok := strings.CutSuffix(pred, "]")
	if !ok {
		return nil, fmt.Errorf("ogsi: malformed service data query %q", query)
	}
	if want, isValue := strings.CutPrefix(pred, "value="); isValue {
		var out []string
		for _, v := range vals {
			if v == want {
				out = append(out, v)
			}
		}
		return out, nil
	}
	var idx int
	if _, err := fmt.Sscanf(pred, "%d", &idx); err != nil || idx < 1 || idx > len(vals) {
		return nil, fmt.Errorf("ogsi: bad index %q in service data query (have %d values)", pred, len(vals))
	}
	return []string{vals[idx-1]}, nil
}
