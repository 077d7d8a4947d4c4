// Package physical implements the physical operators the planner lowers
// logical plans into, including the paper's indexed operators (IndexLookup,
// IndexedScan, IndexedJoin) alongside the vanilla ones (columnar scan,
// filter, project, hash aggregate, shuffle/broadcast hash join, sort,
// limit, exchange). Operators execute by building RDD lineage graphs.
package physical

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"time"

	"indexeddf/internal/core"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
)

// Exec is a physical operator.
type Exec interface {
	// Schema is the operator's output schema.
	Schema() *sqltypes.Schema
	// Children returns input operators.
	Children() []Exec
	// Execute builds the RDD computing the operator's output.
	Execute(ec *ExecContext) (rdd.RDD, error)
	fmt.Stringer
}

// ExecContext carries per-query execution state. Indexed-table snapshots
// are memoized so every indexed operator in one query reads the same
// multi-version view. Ctx is the query's cancellation context; operators
// that run sub-jobs during Execute (broadcast builds) schedule them under
// it, and the driver runs/streams the root RDD under it.
type ExecContext struct {
	RDD *rdd.Context
	Ctx context.Context

	// Query is the query's observability collector. When it is nil or
	// counters-only, operators get nil stat handles: they wrap nothing and
	// pay nothing.
	Query *obs.QueryStats

	mu    sync.Mutex
	snaps map[*core.IndexedTable]*core.Snapshot
	ops   map[Exec]*obs.OpStats
}

// NewExecContext builds an ExecContext on an rdd Context with a background
// cancellation context.
func NewExecContext(rc *rdd.Context) *ExecContext {
	return NewExecContextCtx(context.Background(), rc)
}

// NewExecContextCtx builds an ExecContext whose execution is governed by
// ctx: cancellation or deadline expiry stops partition tasks, shuffle
// stages and broadcast builds.
func NewExecContextCtx(ctx context.Context, rc *rdd.Context) *ExecContext {
	if ctx == nil {
		ctx = context.Background()
	}
	return &ExecContext{RDD: rc, Ctx: ctx, snaps: make(map[*core.IndexedTable]*core.Snapshot)}
}

// SnapshotOf returns the query's pinned snapshot of t, taking it on first
// use.
func (ec *ExecContext) SnapshotOf(t *core.IndexedTable) *core.Snapshot {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	s, ok := ec.snaps[t]
	if !ok {
		s = t.Snapshot()
		ec.snaps[t] = s
	}
	return s
}

// Stats returns e's per-operator collector, creating it on first use, or
// nil when the query runs without observability or with counters only.
// Execute methods call this once and close over the result; the map
// survives execution so EXPLAIN ANALYZE can render the collected numbers
// against the plan tree.
func (ec *ExecContext) Stats(e Exec) *obs.OpStats {
	if !ec.Query.Detailed() {
		return nil
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if st, ok := ec.ops[e]; ok {
		return st
	}
	if ec.ops == nil {
		ec.ops = make(map[Exec]*obs.OpStats)
	}
	st := ec.Query.Op(opName(e))
	ec.ops[e] = st
	return st
}

// OpStats returns e's collector if one was created during execution.
func (ec *ExecContext) OpStats(e Exec) *obs.OpStats {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.ops[e]
}

// opName derives the operator's short label from its concrete type:
// *physical.VecHashAggExec -> "VecHashAgg". Labels are memoized per type
// in opNames, since every instrumented operator of every query asks.
func opName(e Exec) string {
	t := reflect.TypeOf(e)
	if name, ok := opNames.Load(t); ok {
		return name.(string)
	}
	name := t.String()
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	name = strings.TrimSuffix(name, "Exec")
	opNames.Store(t, name)
	return name
}

var opNames sync.Map // reflect.Type -> string

// AnalyzeString renders the plan as an indented tree with each operator's
// collected runtime numbers appended — the EXPLAIN ANALYZE body. Operators
// that recorded nothing (never executed, or proxied by a parent) render
// bare. wall= is inclusive of children, Postgres-style; self= is wall
// minus the wall of the nearest instrumented operators below, clamped at
// 0 (sampled row timing can make a child's estimate exceed its parent's).
func (ec *ExecContext) AnalyzeString(root Exec) string {
	var sb strings.Builder
	var rec func(Exec, int)
	rec = func(node Exec, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(node.String())
		if st := ec.OpStats(node); st != nil {
			fmt.Fprintf(&sb, "  (actual rows=%d", st.RowsOut())
			if b := st.Batches(); b > 0 {
				fmt.Fprintf(&sb, " batches=%d", b)
			}
			if sel := st.Selectivity(); sel >= 0 {
				fmt.Fprintf(&sb, " selectivity=%.1f%%", sel*100)
			}
			wall := st.WallNs()
			self := max(wall-ec.childrenWallNs(node), 0)
			fmt.Fprintf(&sb, " wall=%s self=%s", time.Duration(wall).Round(time.Microsecond),
				time.Duration(self).Round(time.Microsecond))
			if m := st.MemBytes(); m > 0 {
				fmt.Fprintf(&sb, " mem=%s", obs.FormatBytes(m))
			}
			if by := st.Bytes(); by > 0 {
				fmt.Fprintf(&sb, " bytes=%s", obs.FormatBytes(by))
			}
			if runs := st.SpillRuns(); runs > 0 {
				fmt.Fprintf(&sb, " spill=%s/%d runs", obs.FormatBytes(st.SpillBytes()), runs)
			}
			if p := st.Partitions(); p > 0 {
				fmt.Fprintf(&sb, " partitions=%d", p)
			}
			if f := st.Fanout(); f > 0 {
				fmt.Fprintf(&sb, " fanout=%d", f)
			}
			if d := st.Depth(); d > 0 {
				fmt.Fprintf(&sb, " depth=%d", d)
			}
			if r := st.Reorder(); r != "" {
				fmt.Fprintf(&sb, " reordered=%s", r)
			}
			sb.WriteByte(')')
		}
		sb.WriteByte('\n')
		for _, c := range node.Children() {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return sb.String()
}

// childrenWallNs sums the wall time of the nearest instrumented operators
// below e, looking through children that recorded nothing.
func (ec *ExecContext) childrenWallNs(e Exec) int64 {
	var ns int64
	for _, c := range e.Children() {
		if st := ec.OpStats(c); st != nil {
			ns += st.WallNs()
		} else {
			ns += ec.childrenWallNs(c)
		}
	}
	return ns
}

// TreeString renders a physical plan as an indented tree.
func TreeString(e Exec) string {
	var sb strings.Builder
	var rec func(Exec, int)
	rec = func(node Exec, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(node.String())
		sb.WriteByte('\n')
		for _, c := range node.Children() {
			rec(c, depth+1)
		}
	}
	rec(e, 0)
	return sb.String()
}

// ReferencedTables returns the names of every catalog table and
// materialized view a compiled plan reads, deduplicated. The session's
// plan cache keys its invalidation on this set: DDL touching one table
// purges only the cached plans that actually reference it.
func ReferencedTables(e Exec) []string {
	seen := map[string]bool{}
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	var walk func(Exec)
	walk = func(node Exec) {
		switch t := node.(type) {
		case *ColumnarScanExec:
			add(t.Table.Name())
		case *VecColumnarScanExec:
			add(t.Table.Name())
		case *IndexedScanExec:
			add(t.Table.Name())
		case *VecIndexedScanExec:
			add(t.Table.Name())
		case *IndexLookupExec:
			add(t.Table.Name())
		case *IndexedJoinExec:
			add(t.Indexed.Name())
		case *VecIndexedJoinExec:
			add(t.Indexed.Name())
		case *ViewScanExec:
			add(t.View.Name())
		case *VecViewScanExec:
			add(t.View.Name())
		}
		for _, c := range node.Children() {
			walk(c)
		}
	}
	walk(e)
	return names
}

// NormalizeKey canonicalizes a value for use as a join/group key; it is
// core.NormalizeKey so probe keys collide with index keys.
func NormalizeKey(v sqltypes.Value) sqltypes.Value { return core.NormalizeKey(v) }

// AppendValueKey appends the canonical key encoding of v to dst and returns
// the extended buffer. The encoding is normalized (NormalizeKey) so values
// that compare equal across numeric widths encode identically. Both the
// row-at-a-time and the vectorized operators key their hash tables with
// this append-into-reusable-buffer API: lookups go through `m[string(buf)]`
// (which Go compiles without a string allocation) and only inserting a new
// key materializes a string.
func AppendValueKey(dst []byte, v sqltypes.Value) []byte {
	var buf [8]byte
	v = NormalizeKey(v)
	dst = append(dst, byte(v.T))
	switch v.T {
	case sqltypes.Unknown:
	case sqltypes.Float64:
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
		dst = append(dst, buf[:]...)
	case sqltypes.String:
		binary.LittleEndian.PutUint64(buf[:], uint64(len(v.S)))
		dst = append(dst, buf[:]...)
		dst = append(dst, v.S...)
	default:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
		dst = append(dst, buf[:]...)
	}
	return dst
}

// AppendRowKey appends the composite key encoding of the given column
// ordinals of row to dst.
func AppendRowKey(dst []byte, row sqltypes.Row, ordinals []int) []byte {
	for _, o := range ordinals {
		dst = AppendValueKey(dst, row[o])
	}
	return dst
}

// appendValuesKey appends the encoding of a value list (a group-key row).
func appendValuesKey(dst []byte, vals []sqltypes.Value) []byte {
	for _, v := range vals {
		dst = AppendValueKey(dst, v)
	}
	return dst
}

// hasNullKey reports whether any key column is NULL (null keys never join).
func hasNullKey(row sqltypes.Row, ordinals []int) bool {
	for _, o := range ordinals {
		if row[o].IsNull() {
			return true
		}
	}
	return false
}

// nullRow returns a row of n NULLs (outer-join padding).
func nullRow(n int) sqltypes.Row {
	r := make(sqltypes.Row, n)
	for i := range r {
		r[i] = sqltypes.Null
	}
	return r
}

// callbackIter adapts a push-style producer into a RowIter by buffering.
type sliceBuilder struct {
	rows []sqltypes.Row
}

func (b *sliceBuilder) add(r sqltypes.Row) { b.rows = append(b.rows, r) }
func (b *sliceBuilder) iter() sqltypes.RowIter {
	return sqltypes.NewSliceIter(b.rows)
}
