package soap

import (
	"encoding/xml"
	"reflect"
	"testing"
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
