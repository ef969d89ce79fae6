package soap

// This file exposes the envelope writer's steps for one RPC response: a
// ResponseEncoder writes the envelope piece by piece — open, N return
// items, close — so services can encode large result payloads straight
// into the transport's pooled buffer without building one intermediate
// string per item first. The Execution service's cold getPR path appends
// each perfdata.Result's wire bytes into a reused scratch slice and hands
// them to ReturnBytes; no per-result string is ever materialized.
//
// It is the same writer EncodeResponse runs, so cached, oracle and
// streamed envelopes are byte-identical and interchangeable on the wire
// (differential tests in stream_test.go pin this).

import "bytes"

// ResponseEncoder streams one RPC response envelope:
//
//	var enc ResponseEncoder
//	if err := enc.Begin(buf, op, headers); err != nil { ... }
//	for ... { enc.ReturnBytes(item) }
//	if err := enc.Close(); err != nil { ... }
//
// The zero value is ready for Begin; an encoder must not be reused after
// Close. All methods record the first underlying write error, which
// Close returns.
type ResponseEncoder struct {
	env envelopeWriter
}

// Begin writes the envelope through the opening <ppg:<op>Response> tag.
// It fails on invalid operation names, before any bytes are written.
func (e *ResponseEncoder) Begin(w stringWriter, op string, headers []HeaderEntry) error {
	return e.env.rpc(w, op, true, headers)
}

// Return appends one <ppg:return> item from a string.
func (e *ResponseEncoder) Return(item string) { writeItem(&e.env, item) }

// ReturnBytes appends one <ppg:return> item from raw bytes, escaping
// exactly as Return does — the zero-intermediate-string path.
func (e *ResponseEncoder) ReturnBytes(item []byte) { writeItem(&e.env, item) }

// Close writes the envelope trailer and returns the first error any
// write produced.
func (e *ResponseEncoder) Close() error { return e.env.close() }

// CopyEncoded returns an owned right-sized copy of a pooled buffer's
// contents, for callers that stream an envelope and then must retain the
// bytes beyond the buffer's lifetime (e.g. to attach to a cache entry).
func CopyEncoded(buf *bytes.Buffer) []byte {
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}
