// Package soap implements the SOAP-style XML messaging layer used by all
// PPerfGrid grid services.
//
// Messages follow the SOAP 1.1 envelope structure: an Envelope element
// containing an optional Header (carrying metadata entries such as security
// tokens, message IDs, and the getPR paging cursor) and a Body. Requests
// use RPC style — the body holds one element named after the invoked
// operation, whose <param> children carry the positional string arguments.
// Responses hold an <operation>Response element whose <return> children
// carry the result array. Failures are carried as SOAP Fault elements.
//
// All PPerfGrid PortType operations exchange arrays of strings (see Tables
// 1 and 2 of the paper), so the wire format needs exactly these shapes.
// The encode/decode work done here is the "marshalling/encoding" half of
// the architecture-adapter pattern described in the paper's Services Layer,
// and it was the principal source of the grid-services overhead measured in
// Table 4 — which is why the wire path does not use reflection. One
// envelope writer in codec.go writes every envelope: the byte-slice
// Encode* functions, EncodeResponseTo and the streaming ResponseEncoder
// all run through it. codec.go also holds the strict decoder for the
// fixed envelope shapes; legacy.go holds only the tolerant encoding/xml
// decoder it falls back to for any envelope it declines. The original
// encoding/xml encoder lives on in the tests, as the oracle the writer
// is held to byte for byte.
package soap

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Namespace URIs used in PPerfGrid SOAP messages.
const (
	EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"
	ServiceNS  = "http://pperfgrid.pdx.edu/ns/2004/service"
)

// ContentType is the MIME type of SOAP 1.1 messages.
const ContentType = "text/xml; charset=utf-8"

// HeaderEntry is one metadata entry in the SOAP header block.
type HeaderEntry struct {
	Name  string
	Value string
}

// Request is a decoded RPC-style SOAP request.
type Request struct {
	Operation string
	Params    []string
	Headers   []HeaderEntry
}

// Header returns the value of the named header entry and whether it exists.
func (r *Request) Header(name string) (string, bool) {
	for _, h := range r.Headers {
		if h.Name == name {
			return h.Value, true
		}
	}
	return "", false
}

// Response is a decoded RPC-style SOAP response.
type Response struct {
	Operation string // operation name without the "Response" suffix
	Returns   []string
	Headers   []HeaderEntry
}

// Header returns the value of the named header entry and whether it exists.
func (r *Response) Header(name string) (string, bool) {
	for _, h := range r.Headers {
		if h.Name == name {
			return h.Value, true
		}
	}
	return "", false
}

// Fault is a SOAP Fault. It satisfies error so transport code can return
// remote failures directly.
type Fault struct {
	Code   string // e.g. "Server", "Client"
	String string // human-readable fault string
	Detail string // optional machine-readable detail
}

// Standard fault codes.
const (
	FaultServer = "Server"
	FaultClient = "Client"
	// FaultOverloaded is the typed overload rejection a saturated
	// container sheds with: the request was turned away by admission
	// control before consuming a worker slot. Unlike a plain Server
	// fault it is retryable — the Detail carries a Retry-After hint
	// ("retry-after-ms=N") that backoff loops honor.
	FaultOverloaded = "Server.Overloaded"
)

func (f *Fault) Error() string {
	if f.Detail != "" {
		return fmt.Sprintf("soap fault (%s): %s [%s]", f.Code, f.String, f.Detail)
	}
	return fmt.Sprintf("soap fault (%s): %s", f.Code, f.String)
}

// ServerFault builds a Server-side Fault from an error.
func ServerFault(err error) *Fault {
	return &Fault{Code: FaultServer, String: err.Error()}
}

// ClientFault builds a Client-side (bad request) Fault.
func ClientFault(msg string) *Fault {
	return &Fault{Code: FaultClient, String: msg}
}

// overloadDetailPrefix introduces the Retry-After hint in an overload
// fault's Detail element.
const overloadDetailPrefix = "retry-after-ms="

// OverloadFault builds the typed overload rejection shed by admission
// control. retryAfter is the server's hint for when a retry has a chance
// of being admitted; it is clamped to at least 1 ms so the hint survives
// the millisecond wire encoding.
func OverloadFault(msg string, retryAfter time.Duration) *Fault {
	ms := retryAfter.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return &Fault{
		Code:   FaultOverloaded,
		String: msg,
		Detail: overloadDetailPrefix + strconv.FormatInt(ms, 10),
	}
}

// AsOverload reports whether err is (or wraps) a typed overload fault,
// returning the Retry-After hint it carries (0 when the detail is absent
// or malformed — still an overload, just without a usable hint).
func AsOverload(err error) (time.Duration, bool) {
	var f *Fault
	if !errors.As(err, &f) || f.Code != FaultOverloaded {
		return 0, false
	}
	if rest, ok := strings.CutPrefix(f.Detail, overloadDetailPrefix); ok {
		if n, perr := strconv.ParseInt(rest, 10, 64); perr == nil && n > 0 {
			return time.Duration(n) * time.Millisecond, true
		}
	}
	return 0, true
}

// ErrMalformed reports an XML document that is not a well-formed SOAP
// envelope of the expected shape.
var ErrMalformed = errors.New("soap: malformed envelope")

// operationNameOK reports whether s is usable as an XML element local name.
func operationNameOK(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9' || r == '-' || r == '.':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// EncodeRequest serializes an RPC request envelope.
func EncodeRequest(op string, headers []HeaderEntry, params []string) ([]byte, error) {
	return encodeRPC(op, false, headers, params)
}

// EncodeResponse serializes an RPC response envelope for the given
// operation. The wire element is named <op>Response per SOAP convention.
func EncodeResponse(op string, headers []HeaderEntry, returns []string) ([]byte, error) {
	return encodeRPC(op, true, headers, returns)
}

// EncodeFault serializes a Fault envelope.
func EncodeFault(f *Fault) ([]byte, error) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	var e envelopeWriter
	e.open(buf, nil)
	e.fault(f)
	e.close() // a bytes.Buffer write never fails
	return CopyEncoded(buf), nil
}

// EncodeResponseTo streams an RPC response envelope directly to w (the
// zero-copy path for transports that own a write buffer).
func EncodeResponseTo(w stringWriter, op string, headers []HeaderEntry, returns []string) error {
	return writeRPC(w, op, true, headers, returns)
}

// encodeRPC runs writeRPC into a pooled scratch buffer and returns a
// right-sized copy the caller owns.
func encodeRPC(op string, response bool, headers []HeaderEntry, items []string) ([]byte, error) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	if err := writeRPC(buf, op, response, headers, items); err != nil {
		return nil, err
	}
	return CopyEncoded(buf), nil
}

// writeRPC writes a whole request or response envelope to w.
func writeRPC(w stringWriter, op string, response bool, headers []HeaderEntry, items []string) error {
	var e envelopeWriter
	if err := e.rpc(w, op, response, headers); err != nil {
		return err
	}
	for _, it := range items {
		writeItem(&e, it)
	}
	return e.close()
}

// decoded is the intermediate result of parsing any envelope.
type decoded struct {
	headers  []HeaderEntry
	bodyName string   // local name of the single body child
	items    []string // text of each item child, in order
	fault    *Fault
}

// decodeAny parses an envelope: the strict fast decoder first (the
// canonical shape every PPerfGrid peer emits), falling back to the
// tolerant legacy decoder for anything else.
func decodeAny(data []byte, itemName string) (*decoded, error) {
	if d, err := fastDecode(data, itemName); err == nil {
		return d, nil
	}
	return decodeEnvelope(data, itemName)
}

// DecodeRequest parses a request envelope.
func DecodeRequest(data []byte) (*Request, error) {
	d, err := decodeAny(data, "param")
	if err != nil {
		return nil, err
	}
	if d.fault != nil {
		return nil, fmt.Errorf("%w: fault in request body", ErrMalformed)
	}
	return &Request{Operation: d.bodyName, Params: d.items, Headers: d.headers}, nil
}

// DecodeResponse parses a response envelope. If the body carries a SOAP
// Fault, it is returned as the error.
func DecodeResponse(data []byte) (*Response, error) {
	d, err := decodeAny(data, "return")
	if err != nil {
		return nil, err
	}
	if d.fault != nil {
		return nil, d.fault
	}
	op := strings.TrimSuffix(d.bodyName, "Response")
	if op == d.bodyName {
		return nil, fmt.Errorf("%w: body element %q lacks Response suffix", ErrMalformed, d.bodyName)
	}
	return &Response{Operation: op, Returns: d.items, Headers: d.headers}, nil
}
