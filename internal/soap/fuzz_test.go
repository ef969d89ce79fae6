package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzDecodeEnvelope holds the strict decoder to the tolerant one, which
// is the reference for what an envelope means. Invariant, for both item
// names: neither decoder panics, and whenever fastDecode accepts a
// document, decodeEnvelope accepts it too and yields the same decoded
// structure — so falling back never changes an answer, only its cost.
func FuzzDecodeEnvelope(f *testing.F) {
	h := func(name, value string) HeaderEntry { return HeaderEntry{Name: name, Value: value} }
	seeds := []struct {
		headers []HeaderEntry
		items   []string
	}{
		{nil, nil},
		{nil, []string{""}},
		{nil, []string{"gflops", "0", "1", "hpl", "/Process/0"}},
		{[]HeaderEntry{h("ppg-cursor", "pr-1-7"), h("ppg-pageSize", "3")}, []string{"a|b|c|0.0-1.5|42"}},
		{[]HeaderEntry{h(`q"<&>'`, "tab\there\nnl\rcr")}, []string{"<tag>&amp;</tag>", `"'`, "]]>", "\x01\xff", "é世\U0001F600"}},
		{[]HeaderEntry{h("", "")}, []string{"&#xD;", "&#65;", "x", "y", "z"}},
	}
	for _, s := range seeds {
		for _, encode := range []func(string, []HeaderEntry, []string) ([]byte, error){EncodeRequest, EncodeResponse} {
			data, err := encode("getPR", s.headers, s.items)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, flt := range []*Fault{
		{Code: FaultServer, String: "boom"},
		{Code: FaultOverloaded, String: "shed <now>", Detail: "retry-after-ms=5"},
	} {
		data, err := EncodeFault(flt)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Canonical framing around bytes encoding/xml rejects or rewrites: the
	// strict decoder must decline each one.
	for _, text := range []string{"\x01", "\xff", "a\rb", "a]]>b", "&#X41;", "&#0;", "&#xFFFE;"} {
		f.Add([]byte(xml.Header + envelopeOpen + "<soapenv:Body><ppg:getPRResponse><ppg:return>" +
			text + "</ppg:return></ppg:getPRResponse></soapenv:Body></soapenv:Envelope>"))
	}
	f.Add([]byte(xml.Header + envelopeOpen + `<soapenv:Header><ppg:entry name="a<b">v</ppg:entry></soapenv:Header>` +
		"<soapenv:Body><ppg:getPR></ppg:getPR></soapenv:Body></soapenv:Envelope>"))
	f.Add([]byte(""))
	f.Add([]byte("not xml at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, item := range []string{"param", "return"} {
			fast, ferr := fastDecode(data, item)
			slow, serr := decodeEnvelope(data, item)
			if ferr != nil {
				continue
			}
			if serr != nil {
				t.Fatalf("%s: fast decoder accepted what the tolerant decoder rejects (%v):\n%q", item, serr, data)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("%s: decoders disagree on %q:\nfast %+v\nslow %+v", item, data, fast, slow)
			}
		}
	})
}

// FuzzEnvelopeRoundTrip holds the envelope writer to the strict decoder.
// For any operation name either the writer rejects it before writing a
// byte, or every envelope it writes — request, response, and a response
// streamed from byte items — matches the encoding/xml oracle byte for
// byte and fastDecode accepts it, without falling back, returning the
// input with characters outside the XML range turned into U+FFFD. Faults
// take the tolerant decoder, as on the wire; one comes back equal when its
// code holds no ':' (the decoder strips a namespace prefix).
//
// headers and items are lists joined by '\x1f', headers as alternating
// names and values.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add("getPR", "ppg-cursor\x1fpr-1-7\x1fppg-pageSize\x1f3", "gflops\x1f0\x1f1\x1fhpl", false, "", "", "")
	f.Add("getPRResponse", `q"<&>'`+"\x1ftab\there\nnl\rcr", "<tag>&amp;</tag>\x1f]]>\x1f\x01\xff\x1fé世\U0001F600", false, "", "", "")
	f.Add("op-1.b_c", "", "", true, FaultServer, "boom", "")
	f.Add("x", "\x1f", "\x1f", true, FaultOverloaded, "shed <now>", "retry-after-ms=5")
	f.Add("1bad", "", "a", true, "a:b", "\r\n", "\x00")
	f.Add("", "", "", false, "", "", "")
	f.Fuzz(func(t *testing.T, op, headers, items string, isFault bool, code, text, detail string) {
		var hs, want []HeaderEntry
		if headers != "" {
			parts := strings.Split(headers, "\x1f")
			for i := 0; i+1 < len(parts); i += 2 {
				hs = append(hs, HeaderEntry{Name: parts[i], Value: parts[i+1]})
				want = append(want, HeaderEntry{Name: xmlText(parts[i]), Value: xmlText(parts[i+1])})
			}
		}
		var its, wantItems []string
		if items != "" {
			for _, it := range strings.Split(items, "\x1f") {
				its = append(its, it)
				wantItems = append(wantItems, xmlText(it))
			}
		}

		var buf bytes.Buffer
		err := EncodeResponseTo(&buf, op, hs, its)
		if !operationNameOK(op) {
			if err == nil || buf.Len() != 0 {
				t.Fatalf("invalid op %q: err %v after writing %d bytes", op, err, buf.Len())
			}
			if _, err := EncodeRequest(op, hs, its); err == nil {
				t.Fatalf("EncodeRequest accepted invalid op %q", op)
			}
		} else {
			if err != nil {
				t.Fatal(err)
			}
			var enc ResponseEncoder
			var streamed bytes.Buffer
			if err := enc.Begin(&streamed, op, hs); err != nil {
				t.Fatal(err)
			}
			for _, it := range its {
				enc.ReturnBytes([]byte(it))
			}
			if err := enc.Close(); err != nil {
				t.Fatal(err)
			}
			req, err := EncodeRequest(op, hs, its)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				data     []byte
				oracle   func(string, []HeaderEntry, []string) ([]byte, error)
				item     string
				bodyName string
			}{
				{req, LegacyEncodeRequest, "param", op},
				{buf.Bytes(), LegacyEncodeResponse, "return", op + "Response"},
				{streamed.Bytes(), LegacyEncodeResponse, "return", op + "Response"},
			} {
				oracle, err := c.oracle(op, hs, its)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(c.data, oracle) {
					t.Fatalf("envelope diverges from the oracle:\nwriter %q\noracle %q", c.data, oracle)
				}
				got, err := fastDecode(c.data, c.item)
				if err != nil {
					t.Fatalf("fastDecode fell back (%v) on %q", err, c.data)
				}
				if w := (&decoded{headers: want, bodyName: c.bodyName, items: wantItems}); !reflect.DeepEqual(got, w) {
					t.Fatalf("round trip of %q:\ngot  %+v\nwant %+v", c.data, got, w)
				}
			}
		}

		if !isFault {
			return
		}
		flt := &Fault{Code: code, String: text, Detail: detail}
		data, err := EncodeFault(flt)
		if err != nil {
			t.Fatal(err)
		}
		if oracle, err := LegacyEncodeFault(flt); err != nil || !bytes.Equal(data, oracle) {
			t.Fatalf("fault diverges from the oracle (%v):\nwriter %q\noracle %q", err, data, oracle)
		}
		_, err = DecodeResponse(data)
		var got *Fault
		if !errors.As(err, &got) {
			t.Fatalf("fault envelope decoded as %v", err)
		}
		wantFault := Fault{Code: xmlText(code), String: xmlText(text), Detail: xmlText(detail)}
		if !strings.Contains(code, ":") && *got != wantFault {
			t.Fatalf("fault round trip: got %+v, want %+v", *got, wantFault)
		}
	})
}

// xmlText is s as it survives the envelope: every character outside the
// XML range, and every byte of invalid UTF-8, becomes U+FFFD.
func xmlText(s string) string {
	return strings.Map(func(r rune) rune {
		if !inCharacterRange(r) {
			return utf8.RuneError
		}
		return r
	}, s)
}
