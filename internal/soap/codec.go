package soap

// This file is the hand-rolled wire codec: the one envelope writer, which
// streams envelope bytes directly to an io.Writer with no reflection, and
// a strict decoder for the canonical envelope shape it produces. Both
// exist because the reflection-driven encoding/xml round trip was
// measured as the principal component of the Table 4 grid-services
// overhead; the envelope shapes are fixed (see the package comment), so
// the general-purpose machinery buys nothing on the hot path.
//
// Every envelope — EncodeRequest, EncodeResponse, EncodeFault,
// EncodeResponseTo and the streaming ResponseEncoder — goes through
// envelopeWriter. Differential tests hold it byte for byte to an
// encoding/xml encoder kept in the tests as the oracle. The strict
// decoder falls back to the tolerant encoding/xml decoder in legacy.go
// for any document that is not in canonical form — foreign indentation,
// comments, CDATA, faults, or malformed input — so robustness and error
// reporting are unchanged.

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// envelopeOpen is the canonical envelope start: the exact bytes the
// writer emits after the XML prolog.
const envelopeOpen = `<soapenv:Envelope xmlns:soapenv="` + EnvelopeNS + `" xmlns:ppg="` + ServiceNS + `">`

// bufPool recycles encode scratch buffers across calls; envelopes for
// large getPR result sets reach hundreds of KiB, so reusing the grown
// backing arrays is most of the win.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer hands out a reset pooled buffer. Transport code (the container
// and the client stub) uses the same pool for request/response bodies so
// one hot set of buffers serves the whole wire path.
func GetBuffer() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// PutBuffer returns a buffer to the pool. The caller must not retain any
// slice of its contents.
func PutBuffer(b *bytes.Buffer) {
	// Drop pathologically grown buffers instead of pinning their memory.
	if b.Cap() > 1<<22 {
		return
	}
	bufPool.Put(b)
}

// stringWriter is the writer contract the envelope writer needs;
// *bytes.Buffer and *bufio.Writer both satisfy it.
type stringWriter interface {
	io.Writer
	io.StringWriter
}

// writeEscaped writes s with escaping identical to the encoding/xml
// encoder's (its unexported escapeText): '&', '<', '>', quotes, TAB and CR
// are entity-escaped, characters outside the XML character range become
// U+FFFD, and '\n' is escaped only when escapeNewline is set — the
// encoding/xml encoder escapes newlines in attribute values but passes
// them through raw in character data, and the differential tests hold the
// writer to exactly that. One scan serves strings and byte slices: a
// non-ASCII rune is decoded from at most utf8.UTFMax bytes, which a byte
// slice converts on the stack. The common nothing-to-escape case is a
// single write.
func writeEscaped[T string | []byte](e *envelopeWriter, s T, escapeNewline bool) {
	var esc string
	last := 0
	for i := 0; i < len(s); {
		r, width := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		}
		i += width
		// encoding/xml's entity table: short numeric forms for quotes,
		// hex forms for TAB, newline and CR.
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			if !escapeNewline {
				continue
			}
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if !inCharacterRange(r) || (r == utf8.RuneError && width == 1) {
				esc = "�"
				break
			}
			continue
		}
		writeRaw(e, s[last:i-width])
		e.str(esc)
		last = i
	}
	writeRaw(e, s[last:])
}

// writeRaw writes a run that needs no escaping, without converting it.
func writeRaw[T string | []byte](e *envelopeWriter, s T) {
	if e.err != nil {
		return
	}
	switch s := any(s).(type) {
	case string:
		_, e.err = e.w.WriteString(s)
	case []byte:
		_, e.err = e.w.Write(s)
	}
}

// inCharacterRange mirrors encoding/xml's XML 1.0 Char production check
// (section 2.2 of the XML spec).
func inCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// envelopeWriter is the package's one writer of envelope markup. It
// writes an envelope in canonical form, in steps: rpc (open the envelope,
// then the body element) and any number of items, or open and one fault;
// then close. It mirrors the encoding/xml encoder token for token;
// differential tests assert byte identity. It keeps the first write
// error: later steps write nothing, and close returns it.
type envelopeWriter struct {
	w                   stringWriter
	op, suffix          string // the open RPC element is <ppg:op+suffix>; op is "" without one
	itemOpen, itemClose string
	err                 error
}

// rpc rejects an invalid operation name before writing a byte, then
// opens the envelope and the body element: <ppg:op> holding <ppg:param>
// items for a request, <ppg:opResponse> holding <ppg:return> items for
// a response.
func (e *envelopeWriter) rpc(w stringWriter, op string, response bool, headers []HeaderEntry) error {
	if !operationNameOK(op) {
		return fmt.Errorf("soap: invalid operation name %q", op)
	}
	e.open(w, headers)
	e.op, e.itemOpen, e.itemClose = op, "<ppg:param>", "</ppg:param>"
	if response {
		e.suffix, e.itemOpen, e.itemClose = "Response", "<ppg:return>", "</ppg:return>"
	}
	e.str("<ppg:")
	e.str(e.op)
	e.str(e.suffix)
	e.str(">")
	return e.err
}

// open writes the prolog, the envelope start tag, the header entries (a
// name lands in an attribute, so its newlines are escaped too) and the
// Body start tag.
func (e *envelopeWriter) open(w stringWriter, headers []HeaderEntry) {
	*e = envelopeWriter{w: w}
	e.str(xml.Header)
	e.str(envelopeOpen)
	if len(headers) > 0 {
		e.str("<soapenv:Header>")
		for _, h := range headers {
			e.str(`<ppg:entry name="`)
			writeEscaped(e, h.Name, true)
			e.str(`">`)
			writeEscaped(e, h.Value, false)
			e.str("</ppg:entry>")
		}
		e.str("</soapenv:Header>")
	}
	e.str("<soapenv:Body>")
}

// writeItem writes one item of the open RPC element, from a string or
// from bytes.
func writeItem[T string | []byte](e *envelopeWriter, item T) {
	e.str(e.itemOpen)
	writeEscaped(e, item, false)
	e.str(e.itemClose)
}

// fault writes a Fault element in place of an RPC element.
func (e *envelopeWriter) fault(f *Fault) {
	e.str("<soapenv:Fault><faultcode>soapenv:")
	writeEscaped(e, f.Code, false)
	e.str("</faultcode><faultstring>")
	writeEscaped(e, f.String, false)
	e.str("</faultstring>")
	if f.Detail != "" {
		e.str("<detail>")
		writeEscaped(e, f.Detail, false)
		e.str("</detail>")
	}
	e.str("</soapenv:Fault>")
}

// close ends the RPC element, if one is open, and the envelope, and
// returns the first write error.
func (e *envelopeWriter) close() error {
	if e.op != "" {
		e.str("</ppg:")
		e.str(e.op)
		e.str(e.suffix)
		e.str(">")
	}
	e.str("</soapenv:Body></soapenv:Envelope>")
	return e.err
}

func (e *envelopeWriter) str(s string) {
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

// errNotCanonical makes the fast decoder hand the document to the legacy
// decoder. It never escapes this package.
var errNotCanonical = errors.New("soap: not in canonical form")

// fastDecode parses a canonical envelope (the exact byte shape our
// encoders produce). Any deviation returns errNotCanonical so the caller
// retries with the tolerant legacy decoder. So does anything encoding/xml
// would reject or rewrite, which the encoders never emit: characters
// outside the XML range, a raw '\r' (folded to '\n' there), "]]>" in text
// and '<' in an attribute — falling back never changes an answer.
func fastDecode(data []byte, itemName string) (*decoded, error) {
	if !xmlChars(data) || bytes.Contains(data, cdataEnd) {
		return nil, errNotCanonical
	}
	s := scanner{b: data}
	if !s.lit(xml.Header) || !s.lit(envelopeOpen) {
		return nil, errNotCanonical
	}
	out := &decoded{}
	if s.lit("<soapenv:Header>") {
		for !s.lit("</soapenv:Header>") {
			if !s.lit(`<ppg:entry name="`) {
				return nil, errNotCanonical
			}
			name, ok := s.textUntil('"')
			if !ok || !s.lit(">") {
				return nil, errNotCanonical
			}
			value, ok := s.textUntil('<')
			if !ok || !s.lit("</ppg:entry>") {
				return nil, errNotCanonical
			}
			out.headers = append(out.headers, HeaderEntry{Name: name, Value: value})
		}
	}
	if !s.lit("<soapenv:Body>") {
		return nil, errNotCanonical
	}
	if !s.lit("<ppg:") {
		// Faults (and anything foreign) take the legacy path.
		return nil, errNotCanonical
	}
	name, ok := s.until('>')
	if !ok || !operationNameOK(name) {
		return nil, errNotCanonical
	}
	out.bodyName = name
	openItem := "<ppg:" + itemName + ">"
	closeItem := "</ppg:" + itemName + ">"
	closeBody := "</ppg:" + name + ">"
	for !s.lit(closeBody) {
		if !s.lit(openItem) {
			return nil, errNotCanonical
		}
		text, ok := s.textUntil('<')
		if !ok || !s.lit(closeItem) {
			return nil, errNotCanonical
		}
		out.items = append(out.items, text)
	}
	if !s.lit("</soapenv:Body></soapenv:Envelope>") {
		return nil, errNotCanonical
	}
	if strings.TrimSpace(string(s.b[s.i:])) != "" {
		return nil, errNotCanonical
	}
	return out, nil
}

// scanner is a zero-allocation cursor over the document bytes.
type scanner struct {
	b []byte
	i int
}

// lit consumes tok if it is next.
func (s *scanner) lit(tok string) bool {
	if len(s.b)-s.i >= len(tok) && string(s.b[s.i:s.i+len(tok)]) == tok {
		s.i += len(tok)
		return true
	}
	return false
}

// until consumes and returns the raw bytes before the next occurrence of
// stop, consuming stop too. The segment must not contain entities.
func (s *scanner) until(stop byte) (string, bool) {
	j := bytes.IndexByte(s.b[s.i:], stop)
	if j < 0 {
		return "", false
	}
	seg := s.b[s.i : s.i+j]
	if bytes.IndexByte(seg, '&') >= 0 || bytes.IndexByte(seg, '<') >= 0 {
		return "", false
	}
	s.i += j + 1
	return string(seg), true
}

// textUntil consumes escaped character data up to (but not past) the next
// occurrence of stop, resolving entities exactly as encoding/xml does.
// stop '<' reads element text, stop '"' an attribute value, which must
// not hold a raw '<'.
func (s *scanner) textUntil(stop byte) (string, bool) {
	j := bytes.IndexByte(s.b[s.i:], stop)
	if j < 0 {
		return "", false
	}
	seg := s.b[s.i : s.i+j]
	s.i += j
	if stop != '<' {
		s.i++ // consume the stop byte (attribute-closing quote)
		if bytes.IndexByte(seg, '<') >= 0 {
			return "", false
		}
	}
	if bytes.IndexByte(seg, '&') < 0 {
		return string(seg), true
	}
	return unescape(seg)
}

// cdataEnd may not appear raw in XML text.
var cdataEnd = []byte("]]>")

// xmlChars reports whether s is valid UTF-8 made only of XML characters
// other than '\r'. Sixteen printable ASCII bytes at a time take one test:
// no byte has its high bit set or lies below 0x20. A borrow spreads only
// upward from a byte that really is below 0x20, so the test can raise a
// false alarm (settled byte by byte) but never misses one.
func xmlChars(s []byte) bool {
	const lo, hi = 0x2020202020202020, 0x8080808080808080
	for len(s) > 0 {
		if len(s) >= 16 {
			a := binary.LittleEndian.Uint64(s)
			b := binary.LittleEndian.Uint64(s[8:])
			if (a|(a-lo)|b|(b-lo))&hi == 0 {
				s = s[16:]
				continue
			}
		}
		switch c := s[0]; {
		case c >= 0x20 && c < utf8.RuneSelf, c == '\t', c == '\n':
			s = s[1:]
		case c < utf8.RuneSelf:
			return false
		default:
			r, size := utf8.DecodeRune(s)
			if r == utf8.RuneError && size == 1 || !inCharacterRange(r) {
				return false
			}
			s = s[size:]
		}
	}
	return true
}

// unescape resolves the entity forms the encoder can emit (the five named
// entities plus decimal and hex character references).
func unescape(seg []byte) (string, bool) {
	var b strings.Builder
	b.Grow(len(seg))
	for i := 0; i < len(seg); {
		c := seg[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := bytes.IndexByte(seg[i:], ';')
		if semi < 0 {
			return "", false
		}
		ent := string(seg[i+1 : i+semi])
		i += semi + 1
		switch ent {
		case "lt":
			b.WriteByte('<')
		case "gt":
			b.WriteByte('>')
		case "amp":
			b.WriteByte('&')
		case "apos":
			b.WriteByte('\'')
		case "quot":
			b.WriteByte('"')
		default:
			r, ok := charRef(ent)
			if !ok {
				return "", false
			}
			b.WriteRune(r)
		}
	}
	return b.String(), true
}

// charRef parses a numeric character reference body ("#xA", "#39", ...).
// Like encoding/xml it takes only a lowercase 'x' for hex, and it declines
// references to characters outside the XML range.
func charRef(ent string) (rune, bool) {
	if len(ent) < 2 || ent[0] != '#' {
		return 0, false
	}
	base, digits := 10, ent[1:]
	if digits[0] == 'x' {
		base, digits = 16, digits[1:]
	}
	if digits == "" {
		return 0, false
	}
	var n rune
	for i := 0; i < len(digits); i++ {
		var d rune
		c := digits[i]
		switch {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, false
		}
		n = n*rune(base) + d
		if n > 0x10FFFF {
			return 0, false
		}
	}
	return n, inCharacterRange(n)
}
