package soap

// This file is the item-streaming half of the hand-rolled codec: a
// ResponseEncoder that writes one RPC response envelope piece by piece —
// open, N return items, close — so services can encode large result
// payloads straight into the transport's pooled buffer without building
// one intermediate string per item first. The Execution service's cold
// getPR path appends each perfdata.Result's wire bytes into a reused
// scratch slice and hands them to ReturnBytes; no per-result string is
// ever materialized.
//
// The emitted bytes are identical to EncodeResponse over the equivalent
// item list (differential tests in stream_test.go pin this), so cached
// envelopes, oracle envelopes, and streamed envelopes stay
// interchangeable on the wire.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"unicode/utf8"
)

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
	w   stringWriter
	op  string
	err error
}

// Begin writes the envelope through the opening <ppg:<op>Response> tag.
// It fails on invalid operation names, before any bytes are written.
func (e *ResponseEncoder) Begin(w stringWriter, op string, headers []HeaderEntry) error {
	if !operationNameOK(op) {
		return fmt.Errorf("soap: invalid operation name %q", op)
	}
	e.w, e.op, e.err = w, op, nil
	e.writeString(xml.Header)
	e.writeString(envelopeOpen)
	if len(headers) > 0 {
		e.writeString("<soapenv:Header>")
		for _, h := range headers {
			e.writeString(`<ppg:entry name="`)
			e.check(writeEscaped(w, h.Name, true))
			e.writeString(`">`)
			e.check(writeEscaped(w, h.Value, false))
			e.writeString("</ppg:entry>")
		}
		e.writeString("</soapenv:Header>")
	}
	e.writeString("<soapenv:Body><ppg:")
	e.writeString(op)
	e.writeString("Response>")
	return e.err
}

// Return appends one <ppg:return> item from a string.
func (e *ResponseEncoder) Return(item string) {
	e.writeString("<ppg:return>")
	e.check(writeEscaped(e.w, item, false))
	e.writeString("</ppg:return>")
}

// ReturnBytes appends one <ppg:return> item from raw bytes, escaping
// exactly as Return does — the zero-intermediate-string path.
func (e *ResponseEncoder) ReturnBytes(item []byte) {
	e.writeString("<ppg:return>")
	e.check(writeEscapedBytes(e.w, item, false))
	e.writeString("</ppg:return>")
}

// Close writes the envelope trailer and returns the first error any
// write produced.
func (e *ResponseEncoder) Close() error {
	e.writeString("</ppg:")
	e.writeString(e.op)
	e.writeString("Response></soapenv:Body></soapenv:Envelope>")
	return e.err
}

func (e *ResponseEncoder) writeString(s string) {
	if e.err == nil {
		_, err := e.w.WriteString(s)
		e.err = err
	}
}

func (e *ResponseEncoder) check(err error) {
	if e.err == nil {
		e.err = err
	}
}

// writeEscapedBytes is writeEscaped over a byte slice: identical
// escaping, no string conversion of the input.
func writeEscapedBytes(w stringWriter, s []byte, escapeNewline bool) error {
	var esc string
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRune(s[i:])
		i += width
		switch r {
		case '"':
			esc = escQuot
		case '\'':
			esc = escApos
		case '&':
			esc = escAmp
		case '<':
			esc = escLT
		case '>':
			esc = escGT
		case '\t':
			esc = escTab
		case '\n':
			if !escapeNewline {
				continue
			}
			esc = escNL
		case '\r':
			esc = escCR
		default:
			if !inCharacterRange(r) || (r == utf8.RuneError && width == 1) {
				esc = escFFFD
				break
			}
			continue
		}
		if _, err := w.Write(s[last : i-width]); err != nil {
			return err
		}
		if _, err := w.WriteString(esc); err != nil {
			return err
		}
		last = i
	}
	_, err := w.Write(s[last:])
	return err
}

// CopyEncoded returns an owned right-sized copy of a pooled buffer's
// contents, for callers that stream an envelope and then must retain the
// bytes beyond the buffer's lifetime (e.g. to attach to a cache entry).
func CopyEncoded(buf *bytes.Buffer) []byte {
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}
