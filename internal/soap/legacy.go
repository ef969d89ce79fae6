package soap

// This file is decoder-only: the tolerant encoding/xml decoder that the
// strict fast decoder in codec.go hands any non-canonical document to
// (foreign whitespace, comments, CDATA, faults, malformed input), so
// tolerance and error reporting are exactly what the original
// encoding/xml codec gave. Every envelope is written by the one writer in
// codec.go; the original encoding/xml encoder survives only in the tests,
// as the byte-identity oracle.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// decodeEnvelope walks the token stream of a SOAP envelope with the
// tolerant encoding/xml tokenizer, collecting header entries and the
// single body element with its item children. It accepts any well-formed
// XML shaped like an envelope, regardless of prefixes or whitespace.
func decodeEnvelope(data []byte, itemName string) (*decoded, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	out := &decoded{}

	if err := expectStart(dec, EnvelopeNS, "Envelope"); err != nil {
		return nil, err
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("%w: missing Body", ErrMalformed)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch {
		case se.Name.Space == EnvelopeNS && se.Name.Local == "Header":
			if err := decodeHeader(dec, se, out); err != nil {
				return nil, err
			}
		case se.Name.Space == EnvelopeNS && se.Name.Local == "Body":
			return out, decodeBody(dec, se, itemName, out)
		default:
			if err := dec.Skip(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
			}
		}
	}
}

func expectStart(dec *xml.Decoder, space, local string) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Space == space && se.Name.Local == local {
				return nil
			}
			return fmt.Errorf("%w: expected <%s>, got <%s>", ErrMalformed, local, se.Name.Local)
		}
	}
}

func decodeHeader(dec *xml.Decoder, start xml.StartElement, out *decoded) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			var name string
			for _, a := range t.Attr {
				if a.Name.Local == "name" {
					name = a.Value
				}
			}
			text, err := collectText(dec, t)
			if err != nil {
				return err
			}
			out.headers = append(out.headers, HeaderEntry{Name: name, Value: text})
		case xml.EndElement:
			if t.Name == start.Name {
				return nil
			}
		}
	}
}

func decodeBody(dec *xml.Decoder, body xml.StartElement, itemName string, out *decoded) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space == EnvelopeNS && t.Name.Local == "Fault" {
				return decodeFault(dec, t, out)
			}
			out.bodyName = t.Name.Local
			return decodeItems(dec, t, itemName, out)
		case xml.EndElement:
			if t.Name == body.Name {
				return fmt.Errorf("%w: empty Body", ErrMalformed)
			}
		}
	}
}

func decodeItems(dec *xml.Decoder, parent xml.StartElement, itemName string, out *decoded) error {
	// items stays nil until the first item so that "no results" and
	// "empty result list" both decode to a nil slice, matching the
	// paper's convention that operations return arrays of strings.
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != itemName {
				return fmt.Errorf("%w: unexpected element <%s> in %s", ErrMalformed, t.Name.Local, parent.Name.Local)
			}
			text, err := collectText(dec, t)
			if err != nil {
				return err
			}
			out.items = append(out.items, text)
		case xml.EndElement:
			if t.Name == parent.Name {
				return nil
			}
		}
	}
}

func decodeFault(dec *xml.Decoder, start xml.StartElement, out *decoded) error {
	f := &Fault{}
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			text, err := collectText(dec, t)
			if err != nil {
				return err
			}
			switch t.Name.Local {
			case "faultcode":
				// Strip the namespace prefix, e.g. "soapenv:Server".
				if i := strings.LastIndexByte(text, ':'); i >= 0 {
					text = text[i+1:]
				}
				f.Code = text
			case "faultstring":
				f.String = text
			case "detail":
				f.Detail = text
			}
		case xml.EndElement:
			if t.Name == start.Name {
				out.fault = f
				return nil
			}
		}
	}
}

// collectText reads the character data of an element that contains only
// text, consuming through its end element.
func collectText(dec *xml.Decoder, start xml.StartElement) (string, error) {
	var b strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		switch t := tok.(type) {
		case xml.CharData:
			b.Write(t)
		case xml.EndElement:
			if t.Name == start.Name {
				return b.String(), nil
			}
		case xml.StartElement:
			return "", fmt.Errorf("%w: unexpected child <%s> in text element <%s>", ErrMalformed, t.Name.Local, start.Name.Local)
		}
	}
}
