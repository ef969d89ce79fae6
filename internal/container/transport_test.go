package container

// Wire-path tests: the one dispatch contract (ogsi.Server) over the
// socket, the paged-call protocol (cursor in SOAP headers), and the fault
// behaviour for malformed, truncated, and oversized envelopes.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/soap"
	"pperfgrid/internal/wsdl"
)

// fakeServer is an ogsi.Server with scripted answers, so the container's
// one dispatch contract is tested independently of core's Execution
// service (which has its own tests). "list" pages a fixed value list
// behind real cursor state; "raw" answers with a retained pre-encoded
// envelope; "stream" encodes its params as the envelope into the
// transport's buffer; "probe" reports whether the request context carried
// a deadline. served counts the calls that reached Serve.
type fakeServer struct {
	values   []string
	retained []byte

	mu        sync.Mutex
	cursors   map[string]int
	served    int
	remaining time.Duration // deadline budget the last probe saw; 0 = none
}

func newFakeServer(t *testing.T, n int) *fakeServer {
	s := &fakeServer{cursors: map[string]int{}}
	for i := 0; i < n; i++ {
		s.values = append(s.values, fmt.Sprintf("value-%03d", i))
	}
	raw, err := soap.EncodeResponse("raw", nil, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	s.retained = raw
	return s
}

func (s *fakeServer) Invoke(op string, params []string) ([]string, error) {
	return nil, errors.New("plain Invoke must not be reached on a Server")
}

func (s *fakeServer) Serve(ctx context.Context, c ogsi.Call, buf *bytes.Buffer) (ogsi.Reply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.served++
	switch c.Op {
	case "raw":
		return ogsi.Reply{Raw: s.retained}, nil
	case "stream":
		if err := soap.EncodeResponseTo(buf, c.Op, nil, c.Params); err != nil {
			return ogsi.Reply{}, err
		}
		return ogsi.Reply{Raw: buf.Bytes()}, nil
	case "probe":
		s.remaining = 0
		if dl, ok := ctx.Deadline(); ok {
			s.remaining = time.Until(dl)
			return ogsi.Reply{Values: []string{"deadline"}}, nil
		}
		return ogsi.Reply{Values: []string{"none"}}, nil
	case "list":
		return s.page(c)
	}
	return ogsi.Reply{}, fmt.Errorf("fake: unknown op %q", c.Op)
}

func (s *fakeServer) page(c ogsi.Call) (ogsi.Reply, error) {
	if !c.Paged {
		return ogsi.Reply{Values: s.values}, nil
	}
	limit := c.Limit
	if limit <= 0 {
		limit = 4
	}
	start := 0
	if c.Cursor != "" {
		off, ok := s.cursors[c.Cursor]
		if !ok {
			return ogsi.Reply{}, errors.New("unknown cursor")
		}
		start = off
		delete(s.cursors, c.Cursor)
	}
	end := start + limit
	if end >= len(s.values) {
		return ogsi.Reply{Values: s.values[start:]}, nil
	}
	id := "c" + strconv.Itoa(end)
	s.cursors[id] = end
	return ogsi.Reply{Values: s.values[start:end], Next: id}, nil
}

func (s *fakeServer) servedCalls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

func fakeDef() *wsdl.Definition {
	return wsdl.New("Fake", wsdl.PortType{Name: "Fake", Operations: []wsdl.Operation{
		wsdl.Op("list", "Returns the value list.", wsdl.P("filter")),
		wsdl.Op("raw", "Returns a retained envelope."),
		wsdl.Op("stream", "Encodes its params into the transport buffer.", wsdl.PRep("arg")),
		wsdl.Op("probe", "Reports the request deadline.", wsdl.PRep("arg")),
	}})
}

// deployFake hosts a fresh fakeServer over n values and dials it.
func deployFake(t *testing.T, c *Container, n int) (*fakeServer, *ogsi.Instance, *Stub) {
	t.Helper()
	svc := newFakeServer(t, n)
	in, err := c.Hosting().CreateInstance("Fake", svc, fakeDef())
	if err != nil {
		t.Fatal(err)
	}
	return svc, in, Dial(in.Handle())
}

// reply unpacks a Serve result into values, next cursor and error.
func reply(r ogsi.Reply, err error) ([]string, string, error) { return r.Values, r.Next, err }

// TestServerContractOverWire drives the one dispatch contract through the
// socket: every reply shape a Server can give, validation of fresh calls
// only, the instance's own answers, and the request context.
func TestServerContractOverWire(t *testing.T) {
	c := startContainer(t, Options{})
	bg := context.Background()
	deadlineCtx, cancel := context.WithTimeout(bg, time.Minute)
	defer cancel()
	cases := []struct {
		name     string
		call     func(t *testing.T, stub *Stub, in *ogsi.Instance) ([]string, string, error)
		want     []string
		wantNext bool
		fault    string // substring of the expected fault; "" expects success
		served   int    // calls that reach Serve
	}{
		{name: "raw from a retained slice", want: []string{"x", "y"}, served: 1,
			call: func(t *testing.T, stub *Stub, _ *ogsi.Instance) ([]string, string, error) {
				out, err := stub.Call("raw")
				return out, "", err
			}},
		{name: "raw aliasing the transport buffer", want: []string{"a", "b"}, served: 1,
			call: func(t *testing.T, stub *Stub, _ *ogsi.Instance) ([]string, string, error) {
				out, err := stub.Call("stream", "a", "b")
				return out, "", err
			}},
		{name: "values unpaged", want: []string{"value-000", "value-001", "value-002"}, served: 1,
			call: func(t *testing.T, stub *Stub, _ *ogsi.Instance) ([]string, string, error) {
				out, err := stub.Call("list", "f")
				return out, "", err
			}},
		{name: "values paged with next", want: []string{"value-000", "value-001"}, wantNext: true, served: 1,
			call: func(t *testing.T, stub *Stub, _ *ogsi.Instance) ([]string, string, error) {
				return reply(stub.Serve(bg, ogsi.Call{Op: "list", Params: []string{"f"}, Paged: true, Limit: 2}, nil))
			}},
		{name: "fresh paged call validated", fault: wsdl.ErrBadArity.Error(), served: 0,
			call: func(t *testing.T, stub *Stub, _ *ogsi.Instance) ([]string, string, error) {
				return reply(stub.Serve(bg, ogsi.Call{Op: "list", Paged: true, Limit: 2}, nil))
			}},
		{name: "continuation not revalidated", want: []string{"value-002"}, served: 2,
			call: func(t *testing.T, stub *Stub, _ *ogsi.Instance) ([]string, string, error) {
				_, next, err := reply(stub.Serve(bg, ogsi.Call{Op: "list", Params: []string{"f"}, Paged: true, Limit: 2}, nil))
				if err != nil || next == "" {
					t.Fatalf("open: next=%q err=%v", next, err)
				}
				return reply(stub.Serve(bg, ogsi.Call{Op: "list", Paged: true, Cursor: next, Limit: 2}, nil))
			}},
		{name: "destroyed instance faults", fault: "no such service instance", served: 0,
			call: func(t *testing.T, stub *Stub, in *ogsi.Instance) ([]string, string, error) {
				if err := in.Destroy(); err != nil {
					t.Fatal(err)
				}
				// Serve itself refuses a destroyed instance that a racing
				// request still holds.
				if _, err := in.Serve(context.Background(), ogsi.Call{Op: "raw"}, new(bytes.Buffer)); !errors.Is(err, ogsi.ErrDestroyed) {
					t.Fatalf("Serve after Destroy: %v, want ErrDestroyed", err)
				}
				return reply(stub.Serve(bg, ogsi.Call{Op: "raw", Paged: true, Limit: 2}, nil))
			}},
		{name: "standard op paged is one terminal page", want: []string{"Fake"}, served: 0,
			call: func(t *testing.T, stub *Stub, _ *ogsi.Instance) ([]string, string, error) {
				return reply(stub.Serve(bg, ogsi.Call{Op: ogsi.OpFindServiceData, Params: []string{"serviceType"}, Paged: true, Limit: 1}, nil))
			}},
		{name: "deadline visible in ctx", want: []string{"deadline"}, served: 1,
			call: func(t *testing.T, stub *Stub, _ *ogsi.Instance) ([]string, string, error) {
				return reply(stub.Serve(deadlineCtx, ogsi.Call{Op: "probe"}, nil))
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, in, stub := deployFake(t, c, 3)
			got, next, err := tc.call(t, stub, in)
			if tc.fault != "" {
				var fault *soap.Fault
				if !errors.As(err, &fault) || !strings.Contains(fault.String, tc.fault) {
					t.Fatalf("err = %v, want a fault containing %q", err, tc.fault)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("values = %q, want %q", got, tc.want)
			}
			if (next != "") != tc.wantNext {
				t.Errorf("next = %q, want a cursor: %v", next, tc.wantNext)
			}
			if n := svc.servedCalls(); n != tc.served {
				t.Errorf("calls reaching Serve = %d, want %d", n, tc.served)
			}
		})
	}
}

// TestPagedCallOverWire: Paged calls through stub.Serve drain the set in
// limit-sized pages whose concatenation equals the unpaged Call.
func TestPagedCallOverWire(t *testing.T) {
	c := startContainer(t, Options{})
	_, _, stub := deployFake(t, c, 19)
	want, err := stub.Call("list", "f")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	cursor := ""
	pages := 0
	for {
		page, next, err := reply(stub.Serve(context.Background(), ogsi.Call{Op: "list", Params: []string{"f"}, Paged: true, Cursor: cursor, Limit: 5}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > 5 {
			t.Fatalf("page has %d values", len(page))
		}
		got = append(got, page...)
		pages++
		if next == "" {
			break
		}
		cursor = next
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged %v != unpaged %v", got, want)
	}
	if pages != 4 {
		t.Errorf("%d pages for 19 values at limit 5", pages)
	}
}

// TestPagedCallAgainstUnpagedService: a plain Service (no ogsi.Server)
// answers a paged call with one terminal page.
func TestPagedCallAgainstUnpagedService(t *testing.T) {
	c := startContainer(t, Options{})
	in, _ := c.Hosting().DeployPersistent("Echo", echoService{}, echoDef())
	stub := Dial(in.Handle())
	page, next, err := reply(stub.Serve(context.Background(), ogsi.Call{Op: "ping", Params: []string{"a", "b"}, Paged: true, Limit: 1}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if next != "" {
		t.Errorf("unpaged service returned cursor %q", next)
	}
	if !reflect.DeepEqual(page, []string{"pong", "a", "b"}) {
		t.Errorf("page = %v", page)
	}
}

// TestBadPageSizeHeaderFaults: a non-numeric page size is a client fault.
func TestBadPageSizeHeaderFaults(t *testing.T) {
	c := startContainer(t, Options{})
	in, _ := c.Hosting().DeployPersistent("Echo", echoService{}, echoDef())
	data, err := soap.EncodeRequest("ping", []soap.HeaderEntry{{Name: ogsi.HeaderPageSize, Value: "lots"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fault := postForFault(t, in.Handle().URL(), data)
	if fault.Code != soap.FaultClient || !strings.Contains(fault.String, ogsi.HeaderPageSize) {
		t.Errorf("fault = %+v", fault)
	}
}

// TestRawResponsePath: a Server's retained envelope reaches the wire
// byte for byte, with no server-side marshalling step.
func TestRawResponsePath(t *testing.T) {
	c := startContainer(t, Options{})
	svc, in, _ := deployFake(t, c, 0)
	req, err := soap.EncodeRequest("raw", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(in.Handle().URL(), soap.ContentType, bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, svc.retained) {
		t.Errorf("wire body %q, want the retained envelope %q", body, svc.retained)
	}
	if n := svc.servedCalls(); n != 1 {
		t.Errorf("calls reaching Serve = %d, want 1", n)
	}
}

// postForFault posts a raw body and decodes the expected SOAP Fault.
func postForFault(t *testing.T, url string, body []byte) *soap.Fault {
	t.Helper()
	resp, err := http.Post(url, soap.ContentType, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want 500 (SOAP fault)", resp.StatusCode)
	}
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, err = soap.DecodeResponse(respBody)
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("response is not a fault: %v", err)
	}
	return fault
}

// TestTruncatedEnvelopeFaults: a request cut off mid-body must produce a
// client fault, not a hang or a 400.
func TestTruncatedEnvelopeFaults(t *testing.T) {
	c := startContainer(t, Options{})
	in, _ := c.Hosting().DeployPersistent("Echo", echoService{}, echoDef())
	data, err := soap.EncodeRequest("ping", nil, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{10, len(data) / 2, len(data) - 40} {
		fault := postForFault(t, in.Handle().URL(), data[:cut])
		if fault.Code != soap.FaultClient || !strings.Contains(fault.String, "decode request") {
			t.Errorf("cut %d: fault = %+v", cut, fault)
		}
	}
}

// TestGarbageBodyFaults: non-XML bodies produce client faults.
func TestGarbageBodyFaults(t *testing.T) {
	c := startContainer(t, Options{})
	in, _ := c.Hosting().DeployPersistent("Echo", echoService{}, echoDef())
	for _, body := range []string{"", "not xml at all", "<html><body>hi</body></html>", "{\"json\":true}"} {
		fault := postForFault(t, in.Handle().URL(), []byte(body))
		if fault.Code != soap.FaultClient {
			t.Errorf("body %q: fault = %+v", body, fault)
		}
	}
}

// TestOversizedHeaderFaults: an envelope blown past ReadLimit by a giant
// header entry is rejected by the size gate before any decode.
func TestOversizedHeaderFaults(t *testing.T) {
	c := startContainer(t, Options{ReadLimit: 4096})
	in, _ := c.Hosting().DeployPersistent("Echo", echoService{}, echoDef())
	huge := strings.Repeat("x", 8192)
	data, err := soap.EncodeRequest("ping", []soap.HeaderEntry{{Name: "token", Value: huge}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fault := postForFault(t, in.Handle().URL(), data)
	if fault.Code != soap.FaultClient || !strings.Contains(fault.String, "size limit") {
		t.Errorf("fault = %+v", fault)
	}
	if c.Faults() == 0 {
		t.Error("fault counter not bumped")
	}
}

// TestUnknownOperationFaultsOverWire: an operation absent from the WSDL
// definition is a server fault naming the operation.
func TestUnknownOperationFaultsOverWire(t *testing.T) {
	c := startContainer(t, Options{})
	in, _ := c.Hosting().DeployPersistent("Echo", echoService{}, echoDef())
	stub := Dial(in.Handle())
	_, err := stub.Call("noSuchOperation")
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("want fault, got %v", err)
	}
	if !strings.Contains(fault.String, "noSuchOperation") {
		t.Errorf("fault does not name the operation: %+v", fault)
	}
	// Same through the paged protocol.
	_, err = stub.Serve(context.Background(), ogsi.Call{Op: "noSuchOperation", Paged: true, Limit: 3}, nil)
	if !errors.As(err, &fault) {
		t.Fatalf("paged: want fault, got %v", err)
	}
}
