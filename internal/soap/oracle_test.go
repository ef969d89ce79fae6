package soap

// The original reflection-based encoding/xml encoder, kept as the oracle
// the envelope writer is held to byte for byte.

import (
	"bytes"
	"encoding/xml"
	"fmt"
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
