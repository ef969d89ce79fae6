package minidb

import (
	"math"
)

// Columnar block codec. A sealed block holds exactly vecBlockSize rows,
// encoded column-major so the vectorized kernels' working set stays
// contiguous and so text bytes can be materialized with one string
// allocation per column per block:
//
//	u32 nrows, u32 ncols
//	per column:
//	  u32 textLen, textLen bytes   all of the column's text, row order
//	  nrows entries: u8 kind, then
//	    KindInt   u64 (two's complement)
//	    KindFloat u64 (IEEE-754 bits)
//	    KindText  u32 byte length into the column's text blob
//	    KindNull  nothing
//
// Decoding fills a single flat []Value arena and slices it row-major, so
// a decoded block costs one arena allocation, one row-header slice, and
// one string per text-bearing column — not one allocation per row.

// zoneEntry is one column's zone map: the Compare-order extremes of the
// block's non-NULL values (Kind==KindNull when the column is all NULL in
// this block) and the NULL count. Pruning uses only Compare semantics, so
// it is sound exactly for the predicate shapes whose kernels compare with
// Compare: <, <=, >, >=, BETWEEN (plain and negated), and IS [NOT] NULL.
// Equality shapes use Equal, which folds numeric text ('5' = 5) and so
// cannot be bounded by Compare extremes.
type zoneEntry struct {
	min, max Value
	nulls    int32
}

// encodeBlock encodes rows (each of width ncols) into a block payload,
// returning the block's zone map alongside so the sealer can both write
// it to the segment footer (via encodeZoneMap) and keep it in the live
// blockRef without a decode round trip.
func encodeBlock(rows []Row, ncols int) (payload []byte, zm []zoneEntry) {
	w := &wbuf{b: make([]byte, 0, 16+len(rows)*ncols*9)}
	w.u32(uint32(len(rows)))
	w.u32(uint32(ncols))
	for c := 0; c < ncols; c++ {
		textLen := 0
		for _, r := range rows {
			if r[c].Kind == KindText {
				textLen += len(r[c].Text)
			}
		}
		w.u32(uint32(textLen))
		for _, r := range rows {
			if r[c].Kind == KindText {
				w.b = append(w.b, r[c].Text...)
			}
		}
		for _, r := range rows {
			v := r[c]
			w.u8(byte(v.Kind))
			switch v.Kind {
			case KindInt:
				w.u64(uint64(v.Int))
			case KindFloat:
				w.u64(math.Float64bits(v.Float))
			case KindText:
				w.u32(uint32(len(v.Text)))
			}
		}
	}
	return w.b, buildZoneMap(rows, ncols)
}

func buildZoneMap(rows []Row, ncols int) []zoneEntry {
	zm := make([]zoneEntry, ncols)
	for c := 0; c < ncols; c++ {
		z := &zm[c]
		for _, r := range rows {
			v := r[c]
			if v.IsNull() {
				z.nulls++
				continue
			}
			if z.min.IsNull() || Compare(v, z.min) < 0 {
				z.min = v
			}
			if z.max.IsNull() || Compare(v, z.max) > 0 {
				z.max = v
			}
		}
	}
	return zm
}

func encodeZoneMap(zm []zoneEntry) []byte {
	w := &wbuf{b: make([]byte, 0, 8+len(zm)*24)}
	w.u32(uint32(len(zm)))
	for i := range zm {
		w.val(zm[i].min)
		w.val(zm[i].max)
		w.u32(uint32(zm[i].nulls))
	}
	return w.b
}

func decodeZoneMap(meta []byte) ([]zoneEntry, error) {
	r := &rbuf{b: meta}
	n := int(r.u32())
	if r.err != nil || n < 0 || n > len(meta) {
		return nil, errf("exec", "segment: corrupt zone map")
	}
	zm := make([]zoneEntry, n)
	for i := range zm {
		zm[i].min = r.val()
		zm[i].max = r.val()
		zm[i].nulls = int32(r.u32())
	}
	if r.err != nil {
		return nil, r.err
	}
	return zm, nil
}

// decodeBlock decodes a block payload into rows backed by one flat Value
// arena. memBytes is the decoded in-memory footprint estimate charged to
// the page cache.
func decodeBlock(payload []byte) (rows []Row, memBytes int64, err error) {
	r := &rbuf{b: payload}
	nrows := int(r.u32())
	ncols := int(r.u32())
	// Every value costs at least its kind byte, so nrows*ncols is bounded
	// by the payload length; divide rather than multiply, because the
	// product of two header words can overflow int.
	if r.err != nil || nrows < 0 || ncols <= 0 || ncols > len(payload) || nrows > len(payload)/ncols {
		return nil, 0, errf("exec", "segment: corrupt block header")
	}
	arena := make([]Value, nrows*ncols)
	rows = make([]Row, nrows)
	for i := range rows {
		rows[i] = arena[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	textTotal := 0
	for c := 0; c < ncols; c++ {
		textLen := int(r.u32())
		if r.err != nil || textLen < 0 || r.off+textLen > len(payload) {
			return nil, 0, errf("exec", "segment: corrupt block text")
		}
		// One allocation for the whole column's text; per-row values are
		// substrings sharing its backing array.
		text := string(payload[r.off : r.off+textLen])
		r.off += textLen
		textTotal += textLen
		pos := 0
		for i := 0; i < nrows; i++ {
			k := Kind(r.u8())
			switch k {
			case KindNull:
			case KindInt:
				arena[i*ncols+c] = Int(int64(r.u64()))
			case KindFloat:
				arena[i*ncols+c] = Float(math.Float64frombits(r.u64()))
			case KindText:
				n := int(r.u32())
				if r.err != nil || pos+n > len(text) {
					return nil, 0, errf("exec", "segment: corrupt block text entry")
				}
				arena[i*ncols+c] = Text(text[pos : pos+n])
				pos += n
			default:
				return nil, 0, errf("exec", "segment: corrupt block value kind")
			}
		}
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	const valueSize = 40 // unsafe.Sizeof(Value{}) on 64-bit
	memBytes = int64(nrows*ncols)*valueSize + int64(textTotal) + int64(nrows)*24
	return rows, memBytes, nil
}
