package soap

import (
	"bytes"
	"math/rand"
	"testing"
)

// nastyStrings exercises every escaping branch: named entities, control
// characters, newline (escaped in attributes, raw in character data),
// invalid UTF-8, and characters outside the XML range.
var nastyStrings = []string{
	"", "plain", "a|b|c|0.0-1.5|42",
	"<tag>&amp;</tag>", `quotes "and" 'apostrophes'`,
	"tab\there", "newline\nhere", "cr\rhere",
	"invalid \xff utf8", "\x00control", "emoji \U0001F600 ok",
	"trailing&", "&lt;already&gt;",
}

func randItem(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return nastyStrings[rng.Intn(len(nastyStrings))]
	}
	b := make([]byte, rng.Intn(40))
	for i := range b {
		b[i] = byte(rng.Intn(128))
	}
	return string(b)
}

// TestResponseEncoderByteIdentical pins the streaming encoder to the
// string-based EncodeResponse: same op, headers, and items must yield the
// same envelope bytes, whichever Return form carries the items.
func TestResponseEncoderByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ops := []string{"getPR", "getPRResponse", "op-1", "a.b_c"}
	for trial := 0; trial < 400; trial++ {
		op := ops[rng.Intn(len(ops))]
		var headers []HeaderEntry
		for i, n := 0, rng.Intn(3); i < n; i++ {
			headers = append(headers, HeaderEntry{
				Name:  randItem(rng),
				Value: randItem(rng),
			})
		}
		items := make([]string, rng.Intn(6))
		for i := range items {
			items[i] = randItem(rng)
		}

		want, err := EncodeResponse(op, headers, items)
		if err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		var enc ResponseEncoder
		if err := enc.Begin(&buf, op, headers); err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if i%2 == 0 {
				enc.ReturnBytes([]byte(it))
			} else {
				enc.Return(it)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("streamed envelope diverges for op=%q items=%q:\nstream %q\noracle %q",
				op, items, buf.Bytes(), want)
		}
		// And the decoder round-trips it like any canonical envelope.
		resp, err := DecodeResponse(buf.Bytes())
		if err != nil {
			t.Fatalf("decode streamed envelope: %v", err)
		}
		if len(resp.Returns) != len(items) {
			t.Fatalf("round trip lost items: %d != %d", len(resp.Returns), len(items))
		}
	}
}

// TestResponseEncoderRejectsBadOpAndLegacy: a bad operation name fails
// Begin before any byte is written, and the same encoder then streams an
// envelope identical to the legacy oracle's.
func TestResponseEncoderRejectsBadOpAndLegacy(t *testing.T) {
	var buf bytes.Buffer
	var enc ResponseEncoder
	if err := enc.Begin(&buf, "1bad", nil); err == nil {
		t.Fatal("want error for invalid operation name")
	}
	if buf.Len() != 0 {
		t.Fatalf("failed Begin wrote %d bytes", buf.Len())
	}
	if err := enc.Begin(&buf, "getPR", nil); err != nil {
		t.Fatal(err)
	}
	enc.Return("a<b")
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := LegacyEncodeResponse("getPR", nil, []string{"a<b"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("streamed envelope diverges from the legacy oracle:\nstream %q\noracle %q", buf.Bytes(), want)
	}
}

// TestResponseEncoderItemAllocs pins the fast-path encode: streaming
// items into a pre-grown buffer allocates nothing per item.
func TestResponseEncoderItemAllocs(t *testing.T) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	item := []byte("func_calls|/Code/MPI/MPI_Allgather|vampir|0.0-11.047856|129.75")
	var enc ResponseEncoder
	run := func() {
		buf.Reset()
		if err := enc.Begin(buf, "getPR", nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			enc.ReturnBytes(item)
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the buffer once
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("streamed encode allocates %.1f times per envelope, want 0", n)
	}
}
