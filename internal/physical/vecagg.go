package physical

import (
	"errors"
	"fmt"

	"indexeddf/internal/columnar"
	"indexeddf/internal/expr"
	"indexeddf/internal/faultpoint"
	"indexeddf/internal/memory"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/spill"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// VecHashAggExec is the vectorized hash aggregate for all three phases.
// Partial and Complete evaluate group/argument expressions as whole
// vectors before the fold loop; Final sits behind the columnar exchange
// and merges accumulator batches directly — group keys are the leading
// columns, accumulator columns are folded lane-wise into the group table,
// so a shuffle GROUP BY stays columnar from scan through final merge.
//
// Group keys are encoded batch-at-a-time into one reusable buffer and
// probed with a zero-allocation map lookup; only a first-seen group
// allocates (its key string and accumulators). A single integer-family
// group key skips encoding entirely (int64 map fast path).
//
// With a spill manager configured, a group table that outgrows its
// reservation goes out of core: see aggSpiller.
type VecHashAggExec struct {
	Child  Exec
	Groups []expr.Expr
	Aggs   []expr.Agg
	Mode   AggMode
	schema *sqltypes.Schema
}

// NewVecHashAgg builds a vectorized hash aggregate.
func NewVecHashAgg(child Exec, groups []expr.Expr, aggs []expr.Agg, mode AggMode, outSchema *sqltypes.Schema) *VecHashAggExec {
	return &VecHashAggExec{Child: child, Groups: groups, Aggs: aggs, Mode: mode, schema: outSchema}
}

// Schema implements Exec.
func (h *VecHashAggExec) Schema() *sqltypes.Schema { return h.schema }

// Children implements Exec.
func (h *VecHashAggExec) Children() []Exec { return []Exec{h.Child} }

func (h *VecHashAggExec) String() string {
	row := HashAggExec{Groups: h.Groups, Aggs: h.Aggs, Mode: h.Mode}
	return "Vec" + row.String()
}

// Execute implements Exec.
func (h *VecHashAggExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	child, err := h.Child.Execute(ec)
	if err != nil {
		return nil, err
	}
	inSchema := h.Child.Schema()
	st := ec.Stats(h)
	if h.Mode == AggFinal {
		// The final merge needs no expression compilation: group keys are
		// the leading columns of the accumulator schema and the aggregate
		// state columns follow positionally.
		intKey := len(h.Groups) == 1 && inSchema.Fields[0].Type.IntLane()
		return ec.RDD.NewBatchIterRDD(child, 0, inSchema, func(tc *rdd.TaskContext, _ int, in vector.BatchIter) (vector.BatchIter, error) {
			start := st.Clock()
			out, err := h.mergeFinal(tc, in, intKey, st)
			st.AddWallSince(start)
			if err != nil {
				return nil, err
			}
			return obs.Batches(st, out), nil
		}), nil
	}
	return ec.RDD.NewBatchIterRDD(child, 0, inSchema, func(tc *rdd.TaskContext, _ int, in vector.BatchIter) (vector.BatchIter, error) {
		groups := make([]*expr.VecExpr, len(h.Groups))
		for i, g := range h.Groups {
			ve, ok := expr.CompileVec(g)
			if !ok {
				return nil, fmt.Errorf("physical: group expression %s is not vectorizable", g)
			}
			groups[i] = ve
		}
		args := make([]*expr.VecExpr, len(h.Aggs))
		for i, a := range h.Aggs {
			if a.Func == expr.CountStarAgg {
				continue
			}
			ve, ok := expr.CompileVec(a.Arg)
			if !ok {
				return nil, fmt.Errorf("physical: aggregate argument %s is not vectorizable", a.Arg)
			}
			args[i] = ve
		}
		start := st.Clock()
		out, err := h.aggregate(tc, in, groups, args, st)
		st.AddWallSince(start)
		if err != nil {
			return nil, err
		}
		return obs.Batches(st, out), nil
	}), nil
}

// groupBytes estimates one group's resident size — group struct, key row,
// accumulator slab share and hash-table entry — for memory accounting.
// String key payloads are charged separately as groups are created.
func groupBytes(nKeys, nAggs int) int64 {
	return 120 + int64(nKeys)*24 + int64(nAggs)*72
}

// aggState is one generation of the group hash table: the maps, the
// deterministic first-seen output order, and how many groups are charged
// to the tracker. The spiller swaps in a fresh generation after each
// flush.
type aggState struct {
	table     map[string]*aggGroup
	intTable  map[int64]*aggGroup
	nullGroup *aggGroup
	order     []*aggGroup
	ga        groupAlloc
	keyBuf    []byte
	charged   int // groups whose bytes are reserved with the tracker
}

func newAggState(nAggs int) *aggState {
	return &aggState{table: map[string]*aggGroup{}, intTable: map[int64]*aggGroup{}, ga: groupAlloc{nAggs: nAggs}}
}

// groupFor probes-or-creates row i's group, keyed by cols[:nKeys]. The
// intKey fast path uses the single key column's int64 lane as the map key
// directly — no encoding, no string hashing (the dominant GROUP BY
// shape); otherwise keys encode into the reusable buffer.
func (s *aggState) groupFor(cols []*columnar.Vector, nKeys, i int, intKey bool) *aggGroup {
	if intKey {
		gv := cols[0]
		if gv.IsNull(i) {
			if s.nullGroup == nil {
				s.nullGroup = s.ga.new(sqltypes.Row{sqltypes.Null})
				s.order = append(s.order, s.nullGroup)
			}
			return s.nullGroup
		}
		k := gv.Int64s()[i]
		g, ok := s.intTable[k]
		if !ok {
			g = s.ga.new(sqltypes.Row{gv.Get(i)})
			s.intTable[k] = g
			s.order = append(s.order, g)
		}
		return g
	}
	s.keyBuf = s.keyBuf[:0]
	for c := 0; c < nKeys; c++ {
		s.keyBuf = AppendValueKey(s.keyBuf, cols[c].Get(i))
	}
	g, ok := s.table[string(s.keyBuf)]
	if !ok {
		keys := make(sqltypes.Row, nKeys)
		for c := 0; c < nKeys; c++ {
			keys[c] = cols[c].Get(i)
		}
		g = s.ga.new(keys)
		s.table[string(s.keyBuf)] = g
		s.order = append(s.order, g)
	}
	return g
}

// settle charges the table's growth after a batch, or — when the budget
// refuses and out-of-core execution is available — fans the whole table
// out to spill runs and restarts with a fresh generation. A runaway
// cardinality GROUP BY without a spill manager still fails fast instead
// of OOMing the process.
func (s *aggState) settle(mem *memory.Tracker, perGroup int64, st *obs.OpStats, spl *aggSpiller) error {
	nw := len(s.order)
	if nw <= s.charged {
		return nil
	}
	need := int64(nw-s.charged) * perGroup
	err := mem.Reserve("VecHashAgg", need)
	if err == nil {
		s.charged = nw
		st.AddMem(need)
		return nil
	}
	if spl == nil || !errors.Is(err, memory.ErrMemoryExceeded) {
		return err
	}
	return spl.flush(s)
}

// aggregate consumes the whole input and renders the result batches.
func (h *VecHashAggExec) aggregate(tc *rdd.TaskContext, in vector.BatchIter, groupExprs, argExprs []*expr.VecExpr, st *obs.OpStats) (vector.BatchIter, error) {
	s := newAggState(len(h.Aggs))
	gvecs := make([]*columnar.Vector, len(groupExprs))
	avecs := make([]*columnar.Vector, len(argExprs))
	intKey := len(groupExprs) == 1 && groupExprs[0].Type().IntLane()
	mem := tc.Mem()
	perGroup := groupBytes(len(h.Groups), len(h.Aggs))
	var spl *aggSpiller
	if tc.Ctx.SpillManager().Enabled() && mem != nil {
		spl = newAggSpiller(h, tc, st, perGroup)
	}
	for {
		if err := tc.Err(); err != nil {
			return nil, err
		}
		b, err := in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		st.AddRowsIn(int64(b.Len()))
		for i, ge := range groupExprs {
			if gvecs[i], err = ge.Eval(b); err != nil {
				return nil, err
			}
		}
		for i, ae := range argExprs {
			if ae == nil {
				continue // COUNT(*)
			}
			if avecs[i], err = ae.Eval(b); err != nil {
				return nil, err
			}
		}
		n := b.Len()
		for i := 0; i < n; i++ {
			g := s.groupFor(gvecs, len(gvecs), i, intKey)
			for ai, a := range h.Aggs {
				if a.Func == expr.CountStarAgg {
					g.accs[ai].count++
					continue
				}
				updateAcc(&g.accs[ai], a, avecs[ai].Get(i))
			}
		}
		if err := s.settle(mem, perGroup, st, spl); err != nil {
			return nil, err
		}
	}
	if spl == nil || spl.fan == nil {
		out, err := h.render(s.order)
		if err != nil {
			return nil, err
		}
		return releaseOnDrain(out, mem, int64(s.charged)*perGroup), nil
	}
	return spl.finish(s)
}

// mergeFinal is the post-exchange merge phase: each input batch carries
// accumulator rows (group keys leading, aggregate state following), and
// every row is folded column-wise into the group table. Only the group
// probe touches per-row values; numeric accumulator columns are read
// straight from their typed lanes.
func (h *VecHashAggExec) mergeFinal(tc *rdd.TaskContext, in vector.BatchIter, intKey bool, st *obs.OpStats) (vector.BatchIter, error) {
	s := newAggState(len(h.Aggs))
	ng := len(h.Groups)
	mem := tc.Mem()
	perGroup := groupBytes(ng, len(h.Aggs))
	var spl *aggSpiller
	if tc.Ctx.SpillManager().Enabled() && mem != nil {
		spl = newAggSpiller(h, tc, st, perGroup)
	}
	for {
		if err := tc.Err(); err != nil {
			return nil, err
		}
		b, err := in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		st.AddRowsIn(int64(b.Len()))
		n := b.Len()
		for i := 0; i < n; i++ {
			g := s.groupFor(b.Cols, ng, i, intKey)
			mergeAccCols(h.Aggs, ng, g, b, i)
		}
		if err := s.settle(mem, perGroup, st, spl); err != nil {
			return nil, err
		}
	}
	if spl == nil || spl.fan == nil {
		out, err := h.render(s.order)
		if err != nil {
			return nil, err
		}
		return releaseOnDrain(out, mem, int64(s.charged)*perGroup), nil
	}
	return spl.finish(s)
}

// ---------------------------------------------------------------------------
// Out-of-core aggregation

// aggSpiller externalizes the hash aggregate. The operator folds input
// normally until the group table's reservation is refused; the spiller
// then renders the whole table in the mergeable partial representation,
// hash-partitions the rows by group key into spillFanout spilled runs
// (salt 1), releases the table's charge, and folding restarts with a
// fresh generation. Fold-then-flush preserves pre-aggregation: a hot
// key's millions of input rows leave as one accumulator row per
// generation, so skew costs flush rounds, not bytes. At end of input the
// fan-out partitions are re-aggregated one at a time — each holds every
// accumulator row of its key subset, so partitions merge independently —
// and a partition that still overflows re-fans with the next level's
// salt, recursively, until it fits (or maxSpillDepth says the budget is
// hopeless).
type aggSpiller struct {
	h        *VecHashAggExec
	tc       *rdd.TaskContext
	st       *obs.OpStats
	schema   *sqltypes.Schema // partial (mergeable) spill-row schema
	ords     []int            // group-key ordinals in schema
	perGroup int64
	intKey   bool // replay fold fast path: single int-lane group key
	fan      *runFan
	out      *vector.Batch // reusable render batch for flushes
}

func newAggSpiller(h *VecHashAggExec, tc *rdd.TaskContext, st *obs.OpStats, perGroup int64) *aggSpiller {
	schema := h.spillSchema()
	ords := make([]int, len(h.Groups))
	for i := range ords {
		ords[i] = i
	}
	return &aggSpiller{
		h: h, tc: tc, st: st, schema: schema, ords: ords, perGroup: perGroup,
		intKey: len(h.Groups) == 1 && schema.Fields[0].Type.IntLane(),
	}
}

// spillSchema is the representation spilled aggregate state is written
// in: accumulator rows that re-fold positionally with mergeAccCols
// whatever the operator's mode. Partial's own output already is that
// row; Final's input batches carry it; Complete (raw rows in, final rows
// out) derives the middle representation.
func (h *VecHashAggExec) spillSchema() *sqltypes.Schema {
	switch h.Mode {
	case AggPartial:
		return h.schema
	case AggFinal:
		return h.Child.Schema()
	default:
		return PartialSchema(h.Groups, h.Aggs)
	}
}

// flush fans the whole current generation out to the level-1 runs.
func (a *aggSpiller) flush(s *aggState) error {
	if err := faultpoint.Hit(faultpoint.SpillPartition); err != nil {
		return err
	}
	if a.fan == nil {
		fan, err := newRunFan(a.tc, "VecHashAgg", a.schema, a.ords, 1, a.st)
		if err != nil {
			return err
		}
		a.fan = fan
		a.st.NoteFanout(spillFanout)
		a.st.NoteDepth(1)
	}
	return a.flushTable(s, a.fan)
}

// flushTable renders every group of s as a partial row into fan, returns
// the generation's charge, and resets s to a fresh generation.
func (a *aggSpiller) flushTable(s *aggState, fan *runFan) error {
	if a.out == nil {
		a.out = vector.NewBatch(a.schema)
	}
	for _, g := range s.order {
		if a.out.Len() >= vector.DefaultBatchSize {
			if err := fan.add(a.out); err != nil {
				return err
			}
			a.out.Reset()
		}
		if err := a.out.AppendRow(emitPartialRow(a.h.Aggs, g)); err != nil {
			return err
		}
	}
	if a.out.Len() > 0 {
		if err := fan.add(a.out); err != nil {
			return err
		}
		a.out.Reset()
	}
	a.tc.Mem().Release(int64(s.charged) * a.perGroup)
	*s = *newAggState(len(a.h.Aggs))
	return nil
}

// finish flushes the final generation and returns the lazy
// re-aggregation iterator over the sealed fan-out partitions. (A global
// aggregate's default row cannot be needed here: the spiller only
// engages after at least one group existed, so some partition is
// non-empty and renders it.)
func (a *aggSpiller) finish(s *aggState) (vector.BatchIter, error) {
	if err := a.flush(s); err != nil {
		return nil, err
	}
	runs, err := a.fan.seal()
	if err != nil {
		return nil, err
	}
	d := &aggDrainIter{spl: a}
	for _, r := range runs {
		d.stack = append(d.stack, aggRunLevel{run: r, level: 1})
	}
	return d, nil
}

// aggRunLevel is one pending fan-out partition and its recursion depth.
type aggRunLevel struct {
	run   *spill.Run
	level int
}

// aggDrainIter lazily re-aggregates the fan-out partitions one at a
// time: pop a run, fold its accumulator rows into a fresh table, render
// and stream it out; a partition that still overflows re-fans with the
// next level's salt and pushes its sub-partitions. LIFO order bounds the
// open state to one lineage of partitions, and rendering per partition
// keeps the resident footprint at one partition's groups — never the
// whole operator's.
type aggDrainIter struct {
	spl   *aggSpiller
	stack []aggRunLevel
	cur   vector.BatchIter
}

// Next implements vector.BatchIter.
func (d *aggDrainIter) Next() (*vector.Batch, error) {
	for {
		if d.cur != nil {
			b, err := d.cur.Next()
			if b != nil || err != nil {
				return b, err
			}
			d.cur = nil
		}
		if len(d.stack) == 0 {
			return nil, nil
		}
		top := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		out, err := d.fold(top.run, top.level)
		if err != nil {
			return nil, err
		}
		d.cur = out // nil when the partition re-fanned into sub-runs
	}
}

// fold re-aggregates one partition run. Returns the rendered output, or
// (nil, nil) when the partition overflowed and its sub-partitions were
// pushed onto the stack instead.
func (d *aggDrainIter) fold(run *spill.Run, level int) (vector.BatchIter, error) {
	a := d.spl
	h := a.h
	tc := a.tc
	mem := tc.Mem()
	ng := len(h.Groups)
	s := newAggState(len(h.Aggs))
	var fan *runFan
	in, err := run.Open(tc.Err, true)
	if err != nil {
		return nil, err
	}
	for {
		if err := tc.Err(); err != nil {
			return nil, err
		}
		b, err := in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		n := b.Len()
		for i := 0; i < n; i++ {
			g := s.groupFor(b.Cols, ng, i, a.intKey)
			mergeAccCols(h.Aggs, ng, g, b, i)
		}
		if nw := len(s.order); nw > s.charged {
			need := int64(nw-s.charged) * a.perGroup
			rerr := mem.Reserve("VecHashAgg", need)
			if rerr == nil {
				s.charged = nw
				a.st.AddMem(need)
				continue
			}
			if !errors.Is(rerr, memory.ErrMemoryExceeded) {
				return nil, rerr
			}
			if level >= maxSpillDepth {
				return nil, fmt.Errorf("physical: aggregate partition still over budget after %d fan-out levels: %w", level, rerr)
			}
			if perr := faultpoint.Hit(faultpoint.SpillPartition); perr != nil {
				return nil, perr
			}
			if fan == nil {
				if fan, err = newRunFan(tc, "VecHashAgg", a.schema, a.ords, uint64(level+1), a.st); err != nil {
					return nil, err
				}
				a.st.NoteDepth(int64(level + 1))
			}
			if err := a.flushTable(s, fan); err != nil {
				return nil, err
			}
		}
	}
	if fan != nil {
		if err := a.flushTable(s, fan); err != nil {
			return nil, err
		}
		subs, err := fan.seal()
		if err != nil {
			return nil, err
		}
		for _, r := range subs {
			d.stack = append(d.stack, aggRunLevel{run: r, level: level + 1})
		}
		return nil, nil
	}
	out, err := h.render(s.order)
	if err != nil {
		return nil, err
	}
	return releaseOnDrain(out, mem, int64(s.charged)*a.perGroup), nil
}

// releaseOnDrain returns the group table's charge once the rendered output
// has been fully consumed. The table dies with its task, but the tracker
// lives for the whole query — without this, every finished map task of a
// many-partition GROUP BY would keep its dead table charged, starving the
// budget that later tasks (and the spill fabric) reserve against.
func releaseOnDrain(in vector.BatchIter, mem *memory.Tracker, bytes int64) vector.BatchIter {
	if bytes <= 0 {
		return in
	}
	return &drainReleaseIter{in: in, mem: mem, bytes: bytes}
}

type drainReleaseIter struct {
	in    vector.BatchIter
	mem   *memory.Tracker
	bytes int64
}

func (r *drainReleaseIter) Next() (*vector.Batch, error) {
	b, err := r.in.Next()
	if b == nil && err == nil && r.bytes > 0 {
		r.mem.Release(r.bytes)
		r.bytes = 0
	}
	return b, err
}

// mergeAccCols folds row i of an accumulator batch into g — the columnar
// counterpart of mergeAccs.
func mergeAccCols(aggs []expr.Agg, groupLen int, g *aggGroup, b *vector.Batch, i int) {
	pos := groupLen
	for ai, a := range aggs {
		ac := &g.accs[ai]
		switch a.Func {
		case expr.CountAgg, expr.CountStarAgg:
			ac.count += b.Cols[pos].Int64s()[i]
			pos++
		case expr.SumAgg:
			col := b.Cols[pos]
			pos++
			if col.IsNull(i) {
				continue
			}
			ac.count++
			if a.ResultType() == sqltypes.Float64 {
				ac.sumF += col.Float64s()[i]
			} else {
				ac.sumI += col.Int64s()[i]
			}
		case expr.MinAgg:
			col := b.Cols[pos]
			pos++
			if col.IsNull(i) {
				continue
			}
			v := col.Get(i)
			if ac.min.IsNull() || sqltypes.Compare(v, ac.min) < 0 {
				ac.min = v
			}
		case expr.MaxAgg:
			col := b.Cols[pos]
			pos++
			if col.IsNull(i) {
				continue
			}
			v := col.Get(i)
			if ac.max.IsNull() || sqltypes.Compare(v, ac.max) > 0 {
				ac.max = v
			}
		case expr.AvgAgg:
			sums, cnts := b.Cols[pos], b.Cols[pos+1]
			pos += 2
			if !sums.IsNull(i) {
				ac.sumF += sums.Float64s()[i]
			}
			ac.count += cnts.Int64s()[i]
		}
	}
}

// render materializes the group table as dense result batches; a global
// aggregate emits one default row even with no input (Final and Complete
// modes, which run on the single post-exchange partition).
func (h *VecHashAggExec) render(order []*aggGroup) (vector.BatchIter, error) {
	if len(order) == 0 && len(h.Groups) == 0 && h.Mode != AggPartial {
		order = append(order, &aggGroup{accs: make([]acc, len(h.Aggs))})
	}
	var batches []*vector.Batch
	var cur *vector.Batch
	for _, g := range order {
		if cur == nil || cur.Len() >= vector.DefaultBatchSize {
			cur = vector.NewBatch(h.schema)
			batches = append(batches, cur)
		}
		var row sqltypes.Row
		if h.Mode == AggPartial {
			row = emitPartialRow(h.Aggs, g)
		} else {
			row = emitFinalRow(h.Aggs, g)
		}
		if err := cur.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return vector.NewSliceIter(batches), nil
}
