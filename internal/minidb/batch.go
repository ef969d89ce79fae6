package minidb

import (
	"strings"
	"sync"
)

// This file holds the one iteration path of the streaming SELECT result
// API. NextBatch delivers rows a batch at a time in column-oriented
// ValueBatches whose backing arrays are pooled and reused across refills,
// so a warmed scan allocates nothing per row (pinned by
// TestBatchScanAllocs) — the cold getPR path decodes straight out of
// them. Row-at-a-time iteration (Rows.Next) reads through a one-row
// batch, and Query drains batches into rows carved from one allocation
// per batch (pinned by TestQueryAllocsPerRow).

// DefaultBatchSize is the batch row capacity used when NextBatch is
// called with max <= 0.
const DefaultBatchSize = 256

// ValueBatch is a column-oriented batch of result rows: Col(c)[r] is the
// value of output column c in the batch's r-th row.
//
// Aliasing contract: the batch's contents are valid only until the next
// NextBatch refill or Release, whichever comes first — both reuse (and
// clear) the backing arrays. Value structs copied out of the batch stay
// valid forever (their Text fields share immutable string storage with
// the table). Release returns the batch to the shared pool; callers must
// not touch it afterwards.
type ValueBatch struct {
	cols [][]Value
	rows int
}

var batchPool = sync.Pool{New: func() any { return new(ValueBatch) }}

// NewBatch hands out a reset pooled batch. Pair with Release.
func NewBatch() *ValueBatch {
	return batchPool.Get().(*ValueBatch)
}

// Release clears the batch (dropping any string references so the pool
// pins no row storage) and returns it to the pool.
func (b *ValueBatch) Release() {
	b.reset(0)
	batchPool.Put(b)
}

// Rows returns the number of rows currently in the batch.
func (b *ValueBatch) Rows() int { return b.rows }

// Cols returns the number of output columns.
func (b *ValueBatch) Cols() int { return len(b.cols) }

// Col returns one output column; its length is Rows(). The slice is
// owned by the batch — see the aliasing contract above.
func (b *ValueBatch) Col(c int) []Value { return b.cols[c][:b.rows] }

// At returns the value of column c in row r.
func (b *ValueBatch) At(c, r int) Value { return b.cols[c][r] }

// reset resizes the batch to ncols empty columns. Column arrays grown by
// earlier fills are reused even across a smaller intermediate ncols (the
// full capacity is revived before truncating), and used value slots are
// cleared on every reset, so recycled arrays never pin stale string
// references yet never re-grow either.
func (b *ValueBatch) reset(ncols int) {
	cols := b.cols[:cap(b.cols)]
	for c := range cols {
		clear(cols[c])
		cols[c] = cols[c][:0]
	}
	for len(cols) < ncols {
		cols = append(cols, nil)
	}
	b.cols = cols[:ncols]
	b.rows = 0
}

// truncateRow drops any values appended beyond the batch's committed row
// count (a rejected DISTINCT duplicate, or a partially projected row
// abandoned on error), clearing the dropped slots — reset only clears
// up to each column's length, so an uncleaned slot beyond it would pin
// its string storage from inside the pool.
func (b *ValueBatch) truncateRow() {
	for c := range b.cols {
		if len(b.cols[c]) > b.rows {
			clear(b.cols[c][b.rows:])
			b.cols[c] = b.cols[c][:b.rows]
		}
	}
}

// appendRows appends the batch's rows to dst as row slices, all carved
// from one fresh allocation, so they stay valid after the batch is
// refilled or released.
func (b *ValueBatch) appendRows(dst [][]Value) [][]Value {
	n := len(b.cols)
	vals := make([]Value, b.rows*n)
	for i := 0; i < b.rows; i++ {
		row := vals[i*n : (i+1)*n : (i+1)*n]
		for c := range b.cols {
			row[c] = b.cols[c][i]
		}
		dst = append(dst, row)
	}
	return dst
}

// rowKeyAt renders the DISTINCT dedup key of row i, byte-identical to
// rowKey on the equivalent row slice.
func (b *ValueBatch) rowKeyAt(i int) string {
	var sb strings.Builder
	for c := range b.cols {
		v := b.cols[c][i]
		sb.WriteByte(byte(v.Kind))
		sb.WriteString(v.String())
		sb.WriteByte(0)
	}
	return sb.String()
}

// NextBatch fills b with up to max result rows (DefaultBatchSize when
// max <= 0) and reports whether it delivered any; check Err after the
// final false. It is the only code that applies LIMIT, projection and
// DISTINCT to a result stream, so whatever the batch sizes, successive
// calls deliver the same rows in the same order with the same terminal
// error, as Next and Query do. A Rows should be consumed through either
// Next or NextBatch, not both.
func (r *Rows) NextBatch(b *ValueBatch, max int) bool {
	if max <= 0 {
		max = DefaultBatchSize
	}
	b.reset(len(r.Columns))
	if r.done || r.err != nil {
		return false
	}
	if r.materialized {
		for b.rows < max {
			if r.limit >= 0 && r.emitted >= r.limit {
				r.finish()
				break
			}
			if r.matPos >= len(r.mat) {
				r.finish()
				break
			}
			row := r.mat[r.matPos]
			r.matPos++
			r.emitted++
			for c := range b.cols {
				b.cols[c] = append(b.cols[c], row[c])
			}
			b.rows++
		}
		return b.rows > 0
	}
	for b.rows < max {
		if r.limit >= 0 && r.emitted >= r.limit {
			r.finish()
			break
		}
		row, err := r.src.next()
		if err != nil {
			r.err = err
			r.finish()
			break
		}
		if row == nil {
			r.finish()
			break
		}
		if r.st.Star {
			// Copying the cell values detaches the batch from the join
			// iterators' reused combined-row buffer.
			for c := range b.cols {
				b.cols[c] = append(b.cols[c], row[c])
			}
		} else {
			r.env.row = row
			failed := false
			for c, it := range r.st.Items {
				v, err := eval(it.Expr, r.env)
				if err != nil {
					r.err = err
					r.finish()
					failed = true
					break
				}
				b.cols[c] = append(b.cols[c], v)
			}
			if failed {
				b.truncateRow()
				break
			}
		}
		if r.seen != nil {
			k := b.rowKeyAt(b.rows)
			if r.seen[k] {
				b.truncateRow()
				continue
			}
			r.seen[k] = true
		}
		b.rows++
		r.emitted++
	}
	return b.rows > 0
}
