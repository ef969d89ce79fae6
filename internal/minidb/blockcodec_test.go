package minidb

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// diffValues compares two decoded row sets value by value, floats by
// their bits so NaN payloads count as equal to themselves.
func diffValues(got, want []Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			g := got[i][j]
			if g.Kind != w.Kind || g.Int != w.Int || g.Text != w.Text ||
				math.Float64bits(g.Float) != math.Float64bits(w.Float) {
				return fmt.Errorf("row %d col %d: %#v, want %#v", i, j, g, w)
			}
		}
	}
	return nil
}

// TestDecodeBlockRejectsOverflowingHeader pins a CRC-valid crasher: a
// header whose nrows*ncols overflows int used to pass the size bound and
// panic in makeslice.
func TestDecodeBlockRejectsOverflowingHeader(t *testing.T) {
	if _, _, err := decodeBlock([]byte("000\xda000\xda")); err == nil {
		t.Fatal("decodeBlock accepted a header claiming 3.6e9 x 3.6e9 values in 8 bytes")
	}
}

// FuzzDecodeBlock feeds arbitrary bytes to both block-level decoders of
// on-disk segment data. Neither may panic; an accepted block has exactly
// the row count its header claims and re-encodes to the same values; an
// accepted zone map likewise survives re-encoding. Seeds are real
// encoder output whose round trip is checked exact before fuzzing.
func FuzzDecodeBlock(f *testing.F) {
	// Every value kind, empty and non-empty text, and extreme numbers.
	rows := []Row{
		{Int(0), Float(0), Text(""), Null()},
		{Int(math.MinInt64), Float(math.Inf(-1)), Text("execid-0007"), Text("x")},
		{Int(math.MaxInt64), Float(math.NaN()), Text("é世"), Int(-1)},
		{Null(), Float(-0.5), Null(), Float(1e300)},
	}
	ncols := len(rows[0])
	for _, block := range [][]Row{rows, rows[:1], nil} {
		payload, zm := encodeBlock(block, ncols)
		got, _, err := decodeBlock(payload)
		if err != nil {
			f.Fatal(err)
		}
		if err := diffValues(got, block); err != nil {
			f.Fatalf("block round trip: %v", err)
		}
		meta := encodeZoneMap(zm)
		back, err := decodeZoneMap(meta)
		if err != nil || len(back) != len(zm) {
			f.Fatalf("zone map round trip: %v (%d entries, want %d)", err, len(back), len(zm))
		}
		for c := range zm {
			if back[c].nulls != zm[c].nulls || Compare(back[c].min, zm[c].min) != 0 || Compare(back[c].max, zm[c].max) != 0 {
				f.Fatalf("zone map column %d: %+v, want %+v", c, back[c], zm[c])
			}
		}
		f.Add(payload)
		f.Add(meta)
	}
	f.Add([]byte("000\xda000\xda"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if rows, _, err := decodeBlock(data); err == nil {
			nrows := int(binary.LittleEndian.Uint32(data))
			ncols := int(binary.LittleEndian.Uint32(data[4:]))
			if len(rows) != nrows {
				t.Fatalf("decoded %d rows, header says %d", len(rows), nrows)
			}
			payload, _ := encodeBlock(rows, ncols)
			again, _, err := decodeBlock(payload)
			if err != nil {
				t.Fatalf("re-encoded block rejected: %v", err)
			}
			if err := diffValues(again, rows); err != nil {
				t.Fatalf("re-encoded block: %v", err)
			}
		}
		if zm, err := decodeZoneMap(data); err == nil {
			back, err := decodeZoneMap(encodeZoneMap(zm))
			if err != nil || len(back) != len(zm) {
				t.Fatalf("re-encoded zone map: %v (%d entries, want %d)", err, len(back), len(zm))
			}
		}
	})
}
