package soap

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// randomWireString builds strings that exercise every escaping path:
// plain ASCII, XML specials, control characters, multibyte runes, and
// invalid UTF-8.
func randomWireString(rng *rand.Rand) string {
	alphabet := []string{
		"a", "Z", "0", "/", "|", ".", " ",
		"<", ">", "&", "\"", "'", "\t", "\n", "\r",
		"é", "世", " ", "&amp;", "]]>", string(byte(0x01)), string([]byte{0xff, 0xfe}),
	}
	n := rng.Intn(24)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// TestCodecMatchesLegacyBytes is the encoder differential: the hand-rolled
// codec must emit byte-identical envelopes to the retained encoding/xml
// oracle for requests, responses, and faults.
func TestCodecMatchesLegacyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		var headers []HeaderEntry
		for h := rng.Intn(4); h > 0; h-- {
			headers = append(headers, HeaderEntry{Name: randomWireString(rng), Value: randomWireString(rng)})
		}
		var items []string
		for p := rng.Intn(6); p > 0; p-- {
			items = append(items, randomWireString(rng))
		}
		fast, err := EncodeRequest("getPR", headers, items)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := LegacyEncodeRequest("getPR", headers, items)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fast, slow) {
			t.Fatalf("request %d: fast and legacy bytes differ:\nfast: %q\nslow: %q", i, fast, slow)
		}
		fast, err = EncodeResponse("getPR", headers, items)
		if err != nil {
			t.Fatal(err)
		}
		slow, err = LegacyEncodeResponse("getPR", headers, items)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fast, slow) {
			t.Fatalf("response %d: fast and legacy bytes differ:\nfast: %q\nslow: %q", i, fast, slow)
		}
	}
	for _, f := range []*Fault{
		{Code: FaultServer, String: "boom"},
		{Code: FaultClient, String: "bad <input>", Detail: "detail & more"},
		{Code: "Custom", String: "", Detail: ""},
	} {
		fast, err := EncodeFault(f)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := LegacyEncodeFault(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fast, slow) {
			t.Fatalf("fault %v: fast and legacy bytes differ:\nfast: %q\nslow: %q", f, fast, slow)
		}
	}
}

// TestFastDecodeMatchesLegacyDecode: for canonical envelopes, the strict
// decoder and the tolerant decoder must produce identical structures.
func TestFastDecodeMatchesLegacyDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		var headers []HeaderEntry
		for h := rng.Intn(4); h > 0; h-- {
			// Header names land in an XML attribute; the legacy decoder
			// returns them as-decoded so any escapable string is fair.
			headers = append(headers, HeaderEntry{Name: randomWireString(rng), Value: randomWireString(rng)})
		}
		var items []string
		for p := rng.Intn(6); p > 0; p-- {
			items = append(items, randomWireString(rng))
		}
		data, err := EncodeResponse("getPR", headers, items)
		if err != nil {
			t.Fatal(err)
		}
		fast, ferr := fastDecode(data, "return")
		slow, serr := decodeEnvelope(data, "return")
		if serr != nil {
			t.Fatalf("legacy decode failed: %v", serr)
		}
		if ferr != nil {
			t.Fatalf("fast decode %d fell back (%v) on canonical input %q", i, ferr, data)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("decode %d: fast %+v != legacy %+v", i, fast, slow)
		}
	}
}

// TestFastDecodeUsedOnCanonical guards the fast path against silent
// regression to the fallback: the canonical shape must parse strictly.
func TestFastDecodeUsedOnCanonical(t *testing.T) {
	data, err := EncodeRequest("getPR", []HeaderEntry{{Name: "cursor", Value: "c1"}}, []string{"gflops", "0", "1", "hpl"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fastDecode(data, "param"); err != nil {
		t.Fatalf("fast decoder rejected canonical envelope: %v", err)
	}
}

// TestDecodeForeignEnvelope: documents not in canonical form (different
// prefixes, whitespace, comments) must still decode via the fallback.
func TestDecodeForeignEnvelope(t *testing.T) {
	doc := "<?xml version=\"1.0\"?>\n" +
		"<!-- emitted by a foreign SOAP stack -->\n" +
		"<s:Envelope xmlns:s=\"" + EnvelopeNS + "\">\n" +
		"  <s:Header>\n    <entry name=\"messageID\">77</entry>\n  </s:Header>\n" +
		"  <s:Body>\n    <getFociResponse>\n      <return>/Process/0</return>\n      <return>/Process/1</return>\n    </getFociResponse>\n  </s:Body>\n" +
		"</s:Envelope>\n"
	resp, err := DecodeResponse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Operation != "getFoci" || len(resp.Returns) != 2 || resp.Returns[0] != "/Process/0" {
		t.Fatalf("unexpected decode: %+v", resp)
	}
	if v, ok := resp.Header("messageID"); !ok || v != "77" {
		t.Fatalf("lost header: %+v", resp.Headers)
	}
}

// TestStreamingEncodersMatchByteAPIs: EncodeResponseTo must write the
// same bytes EncodeResponse returns.
func TestStreamingEncodersMatchByteAPIs(t *testing.T) {
	headers := []HeaderEntry{{Name: "cursor", Value: "page-3"}}
	items := []string{"a|b", "<tricky>"}
	want, err := EncodeResponse("getPR", headers, items)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeResponseTo(&buf, "getPR", headers, items); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("EncodeResponseTo differs:\n%q\n%q", buf.Bytes(), want)
	}
}

// TestDecodeTruncatedEnvelopes: every prefix of a valid envelope cut
// before the Body closes must fail with ErrMalformed (never panic, never
// succeed) — the truncated-body fault-path requirement. Cuts after the
// Body close are tolerated by the legacy decoder (the body is complete),
// so the sweep stops there.
func TestDecodeTruncatedEnvelopes(t *testing.T) {
	data, err := EncodeRequest("getPR", []HeaderEntry{{Name: "n", Value: "v"}}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	bodyEnd := bytes.Index(data, []byte("</soapenv:Body>"))
	if bodyEnd < 0 {
		t.Fatal("no body close in envelope")
	}
	for cut := 0; cut < bodyEnd; cut += 7 {
		if _, err := DecodeRequest(data[:cut]); err == nil {
			t.Fatalf("truncated envelope (%d/%d bytes) decoded successfully", cut, len(data))
		} else if !errors.Is(err, ErrMalformed) {
			t.Fatalf("truncated envelope (%d bytes): error %v is not ErrMalformed", cut, err)
		}
	}
}

// TestXMLCharsMatchesRuneScan pins the sixteen-bytes-at-a-time test to a
// rune-by-rune scan, with each probe character placed at every offset of a
// printable ASCII run.
func TestXMLCharsMatchesRuneScan(t *testing.T) {
	ref := func(s []byte) bool {
		for len(s) > 0 {
			r, size := utf8.DecodeRune(s)
			if r == utf8.RuneError && size == 1 || r == '\r' || !inCharacterRange(r) {
				return false
			}
			s = s[size:]
		}
		return true
	}
	base := []byte(strings.Repeat("gflops|/P ~", 4))
	for _, probe := range []string{"\x00", "\x1f", "\r", "\t", "\n", "\x7f", "\xff", "é", "\uFFFE", "\U0001F600"} {
		for i := 0; i <= len(base); i++ {
			s := append(append(append([]byte{}, base[:i]...), probe...), base[i:]...)
			if got, want := xmlChars(s), ref(s); got != want {
				t.Fatalf("xmlChars(%q) = %v, rune scan says %v", s, got, want)
			}
		}
	}
}

// TestUnescapeRejectsUnknownEntities: malformed entities must punt to the
// legacy decoder rather than mis-decode.
func TestUnescapeRejectsUnknownEntities(t *testing.T) {
	for _, bad := range []string{"&bogus;", "&#xZZ;", "&#;", "&unterminated"} {
		if _, ok := unescape([]byte(bad)); ok {
			t.Fatalf("unescape accepted %q", bad)
		}
	}
	for in, want := range map[string]string{
		"&lt;&gt;&amp;&apos;&quot;": "<>&'\"",
		"&#x41;&#66;":               "AB",
		"&#xA;":                     "\n",
	} {
		got, ok := unescape([]byte(in))
		if !ok || got != want {
			t.Fatalf("unescape(%q) = %q, %v; want %q", in, got, ok, want)
		}
	}
}
