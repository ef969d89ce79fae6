package segment

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestDecodeFooterBoundsCount pins a CRC-valid crasher: the 4-byte
// footer "0000" claims 808M blocks, and the directory used to be sized
// from that count (~38 GB) before a single entry was checked.
func TestDecodeFooterBoundsCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeFooter([]byte("0000"))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decodeFooter accepted 808M blocks in a 4-byte footer")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decodeFooter allocated %d bytes for a 4-byte footer", grew)
	}
}

// TestOpenRejectsBadBlockExtent rewrites a real segment's first footer
// entry, recomputing the footer CRC so only the extent check stands
// between the bytes and ReadBlock. A negative length used to pass
// (Off+Len shrank) and panic ReadBlock's make; an offset near MaxInt64
// used to overflow Off+Len past the bound.
func TestOpenRejectsBadBlockExtent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.seg")
	w, err := NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(bytes.Repeat([]byte{7}, 500), []byte("m")); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trailer := raw[len(raw)-segTrailerLen:]
	footOff := binary.LittleEndian.Uint64(trailer[0:8])
	footLen := binary.LittleEndian.Uint32(trailer[8:12])

	for _, tc := range []struct {
		name string
		off  uint64
		len  uint32
	}{
		{"negative length", segHeaderLen, math.MaxUint32},
		{"overflowing extent", math.MaxInt64 - 100, 500},
	} {
		bad := append([]byte(nil), raw...)
		entry := bad[footOff+4:]
		binary.LittleEndian.PutUint64(entry[0:8], tc.off)
		binary.LittleEndian.PutUint32(entry[8:12], tc.len)
		footer := bad[footOff : footOff+uint64(footLen)]
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(footer))
		badPath := filepath.Join(dir, "bad.seg")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(badPath); err == nil {
			s.Close()
			t.Fatalf("%s: Open accepted block extent off=%d len=%d", tc.name, tc.off, int32(tc.len))
		}
	}
}

// FuzzDecodeFooter: the footer directory decoder never panics, never
// sizes the directory beyond what the bytes can hold, and never accepts
// a negative block length.
func FuzzDecodeFooter(f *testing.F) {
	f.Add(encodeFooter(nil))
	f.Add(encodeFooter([]BlockInfo{
		{Off: segHeaderLen, Len: 500, CRC: 1, Meta: []byte("zone")},
		{Off: segHeaderLen + 500, Len: 0, CRC: 2},
	}))
	f.Add([]byte("0000"))
	f.Fuzz(func(t *testing.T, footer []byte) {
		blocks, err := decodeFooter(footer)
		if err != nil {
			return
		}
		if limit := len(footer)/20 + 1; cap(blocks) > limit {
			t.Fatalf("directory capacity %d for a %d-byte footer (limit %d)", cap(blocks), len(footer), limit)
		}
		for i, b := range blocks {
			if b.Len < 0 {
				t.Fatalf("entry %d: accepted negative length %d", i, b.Len)
			}
		}
	})
}
