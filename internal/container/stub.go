package container

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pperfgrid/internal/gsh"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/soap"
	"pperfgrid/internal/wsdl"
)

// HeaderProvider supplies SOAP header entries for an outgoing call — the
// hook the gsi package uses to attach request signatures.
type HeaderProvider func(op string, params []string) []soap.HeaderEntry

// Stub is the client-side architecture adapter: it presents a grid service
// instance as a local object whose Serve method marshals the invocation to
// SOAP, posts it to the instance's endpoint, and demarshals the response.
// A Stub is safe for concurrent use.
type Stub struct {
	handle  gsh.Handle
	client  *http.Client
	headers HeaderProvider

	mu  sync.Mutex
	def *wsdl.Definition // fetched lazily by Definition()
}

// sharedTransport is the process-wide persistent-connection pool behind
// every stub, like the per-JVM HTTP connection pools of the paper's
// client — but sized for the one-goroutine-per-Execution fan-out of
// QueryPerformanceResults: the default Transport caps idle connections at
// 2 per host, which forces most of a parallel batch onto fresh TCP
// connections every round.
var sharedTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// sharedClient reuses pooled connections across all stubs.
var sharedClient = &http.Client{Transport: sharedTransport, Timeout: 60 * time.Second}

// Dial creates a stub bound to the instance named by handle. No network
// traffic occurs until the first call.
func Dial(handle gsh.Handle) *Stub {
	return &Stub{handle: handle, client: sharedClient}
}

// DialString parses a GSH string and dials it.
func DialString(handleStr string) (*Stub, error) {
	h, err := gsh.Parse(handleStr)
	if err != nil {
		return nil, err
	}
	return Dial(h), nil
}

// SetHeaderProvider installs a provider of per-call SOAP headers.
func (s *Stub) SetHeaderProvider(p HeaderProvider) { s.headers = p }

// SetHTTPClient replaces the HTTP client (e.g. to set timeouts in tests).
func (s *Stub) SetHTTPClient(c *http.Client) { s.client = c }

// Handle returns the stub's target handle.
func (s *Stub) Handle() gsh.Handle { return s.handle }

// Call invokes an operation on the remote instance and returns its string
// array result: Serve under context.Background(), unpaged. Remote failures
// surface as *soap.Fault errors.
func (s *Stub) Call(op string, params ...string) ([]string, error) {
	return ogsi.Invoke(context.Background(), s, op, params...)
}

// Serve is the consumer side of ogsi.Server: it marshals c to a SOAP
// request, posts it to the instance's endpoint and answers with the
// reply's values. It never writes buf. A Paged call carries its page size
// (ogsi.HeaderPageSize, limit <= 0 sent as 0: the service's default) and,
// on a continuation, its cursor (ogsi.HeaderCursor) in SOAP header entries;
// the reply's Next is the service's continuation cursor, "" once the set
// is exhausted. Servers that do not page the operation return the whole
// result as one terminal page, so callers can page unconditionally.
//
// The context bounds the whole round trip — connection establishment, the
// write and the response read — so a federated fan-out's per-site budget
// propagates down to the transport instead of waiting out the shared
// client's 60 s timeout; a cancelled call returns an error wrapping
// ctx.Err(). Its deadline also travels to the server as a relative
// millisecond budget (ogsi.HeaderDeadline), so the container can expire
// the request inside its own layers instead of doing doomed work until the
// client hangs up.
func (s *Stub) Serve(ctx context.Context, c ogsi.Call, _ *bytes.Buffer) (ogsi.Reply, error) {
	var hdrs []soap.HeaderEntry
	if s.headers != nil {
		hdrs = s.headers(c.Op, c.Params)
	}
	if c.Paged {
		hdrs = append(hdrs, soap.HeaderEntry{Name: ogsi.HeaderPageSize, Value: strconv.Itoa(max(c.Limit, 0))})
		if c.Cursor != "" {
			hdrs = append(hdrs, soap.HeaderEntry{Name: ogsi.HeaderCursor, Value: c.Cursor})
		}
	}
	// Rounded up: a truncated budget of 0 would be rejected.
	if dl, ok := ctx.Deadline(); ok {
		if ms := int64((time.Until(dl) + time.Millisecond - 1) / time.Millisecond); ms > 0 {
			hdrs = append(hdrs, soap.HeaderEntry{Name: ogsi.HeaderDeadline, Value: strconv.FormatInt(ms, 10)})
		}
	}
	// The request body must be freshly owned, not pooled: when the server
	// answers before draining the body (e.g. a size-limit fault), Post
	// returns while the Transport's write loop is still reading it, so a
	// pooled buffer could be reset and rewritten mid-send. EncodeRequest
	// does its scratch work in the pool and returns a right-sized copy.
	reqBody, err := soap.EncodeRequest(c.Op, hdrs, c.Params)
	if err != nil {
		return ogsi.Reply{}, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.handle.URL(), bytes.NewReader(reqBody))
	if err != nil {
		return ogsi.Reply{}, fmt.Errorf("container: call %s on %s: %w", c.Op, s.handle, err)
	}
	httpReq.Header.Set("Content-Type", soap.ContentType)
	httpResp, err := s.client.Do(httpReq)
	if err != nil {
		return ogsi.Reply{}, fmt.Errorf("container: call %s on %s: %w", c.Op, s.handle, err)
	}
	defer httpResp.Body.Close()
	respBuf := soap.GetBuffer()
	defer soap.PutBuffer(respBuf)
	if _, err := respBuf.ReadFrom(httpResp.Body); err != nil {
		return ogsi.Reply{}, fmt.Errorf("container: read response for %s: %w", c.Op, err)
	}
	// DecodeResponse copies all strings out of the envelope, so both
	// buffers can return to the pool when this function exits.
	resp, err := soap.DecodeResponse(respBuf.Bytes())
	if err != nil {
		return ogsi.Reply{}, err // includes *soap.Fault for remote failures
	}
	if resp.Operation != c.Op {
		return ogsi.Reply{}, fmt.Errorf("container: response for %q to a %q call", resp.Operation, c.Op)
	}
	next, _ := resp.Header(ogsi.HeaderCursor)
	return ogsi.Reply{Values: resp.Returns, Next: next}, nil
}

// Definition fetches (once) and returns the remote instance's WSDL
// definition.
func (s *Stub) Definition() (*wsdl.Definition, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.def != nil {
		return s.def, nil
	}
	httpResp, err := s.client.Get(s.handle.URL())
	if err != nil {
		return nil, fmt.Errorf("container: fetch definition of %s: %w", s.handle, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("container: fetch definition of %s: HTTP %d", s.handle, httpResp.StatusCode)
	}
	body, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, err
	}
	def, err := wsdl.Parse(body)
	if err != nil {
		return nil, err
	}
	s.def = def
	return def, nil
}

// Destroy invokes the GridService Destroy operation on the remote
// instance.
func (s *Stub) Destroy() error {
	_, err := s.Call(ogsi.OpDestroy)
	return err
}

// CreateService calls the Factory PortType's CreateService on the remote
// factory and returns a stub bound to the new instance.
func (s *Stub) CreateService(params ...string) (*Stub, error) {
	out, err := s.Call(ogsi.OpCreateService, params...)
	if err != nil {
		return nil, err
	}
	if len(out) != 1 {
		return nil, fmt.Errorf("container: CreateService returned %d values, want 1", len(out))
	}
	child, err := DialString(out[0])
	if err != nil {
		return nil, err
	}
	child.headers = s.headers
	child.client = s.client
	return child, nil
}

// SOAPSinkDialer returns an ogsi.SinkDialer that delivers notifications to
// remote sinks with DeliverNotification calls over SOAP.
func SOAPSinkDialer() ogsi.SinkDialer {
	return func(handle gsh.Handle) ogsi.Sink {
		stub := Dial(handle)
		return ogsi.SinkFunc(func(topic, message string) error {
			_, err := stub.Call(ogsi.OpDeliverNotification, topic, message)
			return err
		})
	}
}

// SinkService adapts a local ogsi.Sink into a deployable grid service
// implementing the NotificationSink PortType, so a client can receive
// push notifications by hosting one in its own container.
type SinkService struct {
	Sink ogsi.Sink
}

// Invoke implements DeliverNotification.
func (s *SinkService) Invoke(op string, params []string) ([]string, error) {
	if op != ogsi.OpDeliverNotification {
		return nil, fmt.Errorf("%w: %q on notification sink", ogsi.ErrUnknownOperation, op)
	}
	if len(params) != 2 {
		return nil, fmt.Errorf("container: %s requires [topic, message]", ogsi.OpDeliverNotification)
	}
	if err := s.Sink.Deliver(params[0], params[1]); err != nil {
		return nil, err
	}
	return []string{"delivered"}, nil
}

// DeploySink hosts a sink in the given hosting table and returns its
// instance (whose handle is passed to SubscribeToNotificationTopic).
func DeploySink(h *ogsi.Hosting, sink ogsi.Sink) (*ogsi.Instance, error) {
	def := wsdl.New("NotificationSink", ogsi.NotificationSinkPortType())
	return h.CreateInstance("NotificationSink", &SinkService{Sink: sink}, def)
}
