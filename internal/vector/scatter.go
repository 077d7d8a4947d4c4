package vector

import (
	"indexeddf/internal/columnar"
	"indexeddf/internal/sqltypes"
)

// This file is the map side of the columnar exchange: batches are hashed
// on their key columns, routed to per-reducer BatchBuilders column-wise,
// and sealed into dense batches the shuffle service stores as-is — no row
// materialization anywhere between a vectorized producer and a vectorized
// consumer of the shuffle.

// BatchBuilder accumulates rows into column-major batches, sealing each
// batch once it reaches the target size. Appends are column-wise gathers
// (typed lane copies plus null propagation), not per-value boxing.
type BatchBuilder struct {
	schema *sqltypes.Schema
	target int
	cur    *Batch
	sealed []*Batch
	// identity is the reusable 0..n-1 selection Append uses to take whole
	// batches.
	identity []int
}

// NewBatchBuilder returns a builder producing batches of up to target rows
// (DefaultBatchSize when target <= 0).
func NewBatchBuilder(schema *sqltypes.Schema, target int) *BatchBuilder {
	if target <= 0 {
		target = DefaultBatchSize
	}
	return &BatchBuilder{schema: schema, target: target}
}

// AppendSelected appends the rows of src selected by sel (in order),
// sealing full batches as it goes. sel may be any length; it is consumed
// in target-size segments.
func (b *BatchBuilder) AppendSelected(src *Batch, sel []int) {
	for len(sel) > 0 {
		if b.cur == nil {
			b.cur = NewBatch(b.schema)
		}
		take := b.target - b.cur.Len()
		if take > len(sel) {
			take = len(sel)
		}
		appendGather(b.cur, src, sel[:take])
		sel = sel[take:]
		if b.cur.Len() >= b.target {
			b.sealed = append(b.sealed, b.cur)
			b.cur = nil
		}
	}
}

// Seal flushes the in-progress batch and returns every sealed batch,
// resetting the builder.
func (b *BatchBuilder) Seal() []*Batch {
	if b.cur != nil && b.cur.Len() > 0 {
		b.sealed = append(b.sealed, b.cur)
	}
	b.cur = nil
	out := b.sealed
	b.sealed = nil
	return out
}

// appendGather appends the selected rows of src to dst column-wise. Unlike
// Gather it extends dst instead of overwriting it, preserving rows (and
// null bits) already present.
func appendGather(dst, src *Batch, sel []int) {
	old := dst.Len()
	for c, sc := range src.Cols {
		dc := dst.Cols[c]
		dc.Grow(len(sel))
		switch sc.Type {
		case sqltypes.Float64:
			in, out := sc.Float64s(), dc.Float64s()
			for i, s := range sel {
				out[old+i] = in[s]
			}
		case sqltypes.String:
			in, out := sc.Strings(), dc.Strings()
			for i, s := range sel {
				out[old+i] = in[s]
			}
		default:
			in, out := sc.Int64s(), dc.Int64s()
			for i, s := range sel {
				out[old+i] = in[s]
			}
		}
		if sc.AnyNulls() {
			for i, s := range sel {
				if sc.IsNull(s) {
					dc.SetNull(old + i)
				}
			}
		}
	}
	dst.SetLen(old + len(sel))
}

// HashColumns writes the exchange routing hash of each row's key columns
// into hashes (resized to b.Len()) and returns it. Single-column keys hash
// the value directly; composite keys fold the per-column hashes with
// sqltypes.CombineHash. A single key routes bit-for-bit like the index's
// own partitioning (Hash64 of the normalized key, so integral floats hash
// like the equal integer); the indexed-join co-partitioning depends on
// this.
func HashColumns(b *Batch, ords []int, hashes []uint64) []uint64 {
	n := b.Len()
	if cap(hashes) < n {
		hashes = make([]uint64, n)
	} else {
		hashes = hashes[:n]
	}
	if len(ords) == 1 {
		hashColumn(b.Cols[ords[0]], hashes, false)
		return hashes
	}
	for i := range hashes {
		hashes[i] = sqltypes.HashSeed
	}
	for _, o := range ords {
		hashColumn(b.Cols[o], hashes, true)
	}
	return hashes
}

// hashColumn hashes one key column lane-wise. With combine false the
// value hash is written directly; with combine true it is folded into the
// running composite hash.
func hashColumn(col *columnar.Vector, hashes []uint64, combine bool) {
	emit := func(i int, h uint64) {
		if combine {
			hashes[i] = sqltypes.CombineHash(hashes[i], h)
		} else {
			hashes[i] = h
		}
	}
	anyNulls := col.AnyNulls()
	switch col.Type {
	case sqltypes.Float64:
		vals := col.Float64s()
		for i, f := range vals {
			if anyNulls && col.IsNull(i) {
				emit(i, sqltypes.HashNull())
				continue
			}
			emit(i, sqltypes.HashFloat64(f))
		}
	case sqltypes.String:
		vals := col.Strings()
		for i, s := range vals {
			if anyNulls && col.IsNull(i) {
				emit(i, sqltypes.HashNull())
				continue
			}
			emit(i, sqltypes.HashString(s))
		}
	default:
		vals := col.Int64s()
		for i, x := range vals {
			if anyNulls && col.IsNull(i) {
				emit(i, sqltypes.HashNull())
				continue
			}
			emit(i, sqltypes.HashInt64(x))
		}
	}
}

// Scatter hash-partitions batches into per-reducer builders: the column
// kernel above routes each row, per-reducer selection vectors are built,
// and each non-empty selection is gathered column-wise into that reducer's
// builder. With no key ordinals every row routes to reducer 0 (the
// single-partition gather exchange).
type Scatter struct {
	ords     []int
	builders []*BatchBuilder
	hashes   []uint64
	sel      [][]int
	identity []int
	salt     uint64
}

// NewScatter builds a scatter over nReduce reducers for batches of schema.
func NewScatter(schema *sqltypes.Schema, ords []int, nReduce int) *Scatter {
	return NewScatterSalted(schema, ords, nReduce, 0)
}

// NewScatterSalted builds a scatter whose routing hash is remixed with a
// salt (sqltypes.RehashSalted) before the modulo. Recursive spill
// fan-outs need this: the rows of one fan-out partition all share
// `h % F`, so re-partitioning them with the same function would put
// everything back in one bucket — each recursion level salts with a
// distinct non-zero value to re-shuffle the hash space. Salt 0 routes
// identically to NewScatter (the exchange).
func NewScatterSalted(schema *sqltypes.Schema, ords []int, nReduce int, salt uint64) *Scatter {
	s := &Scatter{
		ords:     ords,
		builders: make([]*BatchBuilder, nReduce),
		sel:      make([][]int, nReduce),
		salt:     salt,
	}
	for i := range s.builders {
		s.builders[i] = NewBatchBuilder(schema, DefaultBatchSize)
	}
	return s
}

// Add routes every row of b to its reducer's builder.
func (s *Scatter) Add(b *Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if len(s.ords) == 0 || len(s.builders) == 1 {
		// Single-partition exchange: append the whole batch in order.
		for len(s.identity) < n {
			s.identity = append(s.identity, len(s.identity))
		}
		s.builders[0].AppendSelected(b, s.identity[:n])
		return
	}
	s.hashes = HashColumns(b, s.ords, s.hashes)
	nr := uint64(len(s.builders))
	for r := range s.sel {
		s.sel[r] = s.sel[r][:0]
	}
	if s.salt != 0 {
		for i, h := range s.hashes {
			r := sqltypes.RehashSalted(h, s.salt) % nr
			s.sel[r] = append(s.sel[r], i)
		}
	} else {
		for i, h := range s.hashes {
			r := h % nr
			s.sel[r] = append(s.sel[r], i)
		}
	}
	for r, sel := range s.sel {
		if len(sel) > 0 {
			s.builders[r].AppendSelected(b, sel)
		}
	}
}

// Seal flushes every builder and returns the per-reducer sealed batches.
func (s *Scatter) Seal() [][]*Batch {
	out := make([][]*Batch, len(s.builders))
	for r, b := range s.builders {
		out[r] = b.Seal()
	}
	return out
}
