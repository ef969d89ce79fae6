package soap

// This file is the original reflection-based encoding/xml codec, retained
// for two jobs after the hand-rolled codec in codec.go took over the wire
// path:
//
//   - Oracle: LegacyEncode* is the reference the differential tests hold
//     the wire encoder to, byte for byte. Nothing on the wire path calls
//     it.
//   - Fallback decoder: the strict fast decoder hands any non-canonical
//     document (foreign whitespace, comments, CDATA, faults, malformed
//     input) to decodeEnvelope below, so tolerance and error reporting are
//     exactly what they were.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// LegacyEncodeRequest is EncodeRequest via the encoding/xml token writer.
func LegacyEncodeRequest(op string, headers []HeaderEntry, params []string) ([]byte, error) {
	if !operationNameOK(op) {
		return nil, fmt.Errorf("soap: invalid operation name %q", op)
	}
	return legacyEncodeEnvelope(headers, op, "param", params, nil)
}

// LegacyEncodeResponse is EncodeResponse via the encoding/xml token writer.
func LegacyEncodeResponse(op string, headers []HeaderEntry, returns []string) ([]byte, error) {
	if !operationNameOK(op) {
		return nil, fmt.Errorf("soap: invalid operation name %q", op)
	}
	return legacyEncodeEnvelope(headers, op+"Response", "return", returns, nil)
}

// LegacyEncodeFault is EncodeFault via the encoding/xml token writer.
func LegacyEncodeFault(f *Fault) ([]byte, error) {
	return legacyEncodeEnvelope(nil, "", "", nil, f)
}

func legacyEncodeEnvelope(headers []HeaderEntry, bodyElem, itemElem string, items []string, fault *Fault) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)

	env := xml.StartElement{
		Name: xml.Name{Local: "soapenv:Envelope"},
		Attr: []xml.Attr{
			{Name: xml.Name{Local: "xmlns:soapenv"}, Value: EnvelopeNS},
			{Name: xml.Name{Local: "xmlns:ppg"}, Value: ServiceNS},
		},
	}
	if err := enc.EncodeToken(env); err != nil {
		return nil, err
	}
	if len(headers) > 0 {
		hdr := xml.StartElement{Name: xml.Name{Local: "soapenv:Header"}}
		if err := enc.EncodeToken(hdr); err != nil {
			return nil, err
		}
		for _, h := range headers {
			e := xml.StartElement{
				Name: xml.Name{Local: "ppg:entry"},
				Attr: []xml.Attr{{Name: xml.Name{Local: "name"}, Value: h.Name}},
			}
			if err := encodeTextElement(enc, e, h.Value); err != nil {
				return nil, err
			}
		}
		if err := enc.EncodeToken(hdr.End()); err != nil {
			return nil, err
		}
	}
	body := xml.StartElement{Name: xml.Name{Local: "soapenv:Body"}}
	if err := enc.EncodeToken(body); err != nil {
		return nil, err
	}
	if fault != nil {
		fe := xml.StartElement{Name: xml.Name{Local: "soapenv:Fault"}}
		if err := enc.EncodeToken(fe); err != nil {
			return nil, err
		}
		for _, kv := range [][2]string{
			{"faultcode", "soapenv:" + fault.Code},
			{"faultstring", fault.String},
			{"detail", fault.Detail},
		} {
			if kv[0] == "detail" && kv[1] == "" {
				continue
			}
			e := xml.StartElement{Name: xml.Name{Local: kv[0]}}
			if err := encodeTextElement(enc, e, kv[1]); err != nil {
				return nil, err
			}
		}
		if err := enc.EncodeToken(fe.End()); err != nil {
			return nil, err
		}
	} else {
		be := xml.StartElement{Name: xml.Name{Local: "ppg:" + bodyElem}}
		if err := enc.EncodeToken(be); err != nil {
			return nil, err
		}
		for _, it := range items {
			e := xml.StartElement{Name: xml.Name{Local: "ppg:" + itemElem}}
			if err := encodeTextElement(enc, e, it); err != nil {
				return nil, err
			}
		}
		if err := enc.EncodeToken(be.End()); err != nil {
			return nil, err
		}
	}
	if err := enc.EncodeToken(body.End()); err != nil {
		return nil, err
	}
	if err := enc.EncodeToken(env.End()); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeTextElement(enc *xml.Encoder, start xml.StartElement, text string) error {
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	if err := enc.EncodeToken(xml.CharData(text)); err != nil {
		return err
	}
	return enc.EncodeToken(start.End())
}

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
