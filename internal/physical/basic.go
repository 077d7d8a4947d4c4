package physical

import (
	"fmt"
	"sort"
	"strings"

	"indexeddf/internal/expr"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
)

// ---------------------------------------------------------------------------
// Filter

// FilterExec keeps rows satisfying a bound predicate.
type FilterExec struct {
	Child Exec
	Cond  expr.Expr
}

// NewFilter builds a filter operator.
func NewFilter(child Exec, cond expr.Expr) *FilterExec { return &FilterExec{Child: child, Cond: cond} }

// Schema implements Exec.
func (f *FilterExec) Schema() *sqltypes.Schema { return f.Child.Schema() }

// Children implements Exec.
func (f *FilterExec) Children() []Exec { return []Exec{f.Child} }

func (f *FilterExec) String() string { return fmt.Sprintf("Filter %s", f.Cond) }

// Execute implements Exec.
func (f *FilterExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	child, err := f.Child.Execute(ec)
	if err != nil {
		return nil, err
	}
	cond := f.Cond
	st := ec.Stats(f)
	return ec.RDD.NewIterRDD(child, 0, func(_ *rdd.TaskContext, _ int, in sqltypes.RowIter) (sqltypes.RowIter, error) {
		return obs.Rows(st, &filterIter{in: obs.CountInto(st, in), cond: cond}), nil
	}), nil
}

type filterIter struct {
	in   sqltypes.RowIter
	cond expr.Expr
}

func (it *filterIter) Next() (sqltypes.Row, error) {
	for {
		row, err := it.in.Next()
		if err != nil || row == nil {
			return row, err
		}
		keep, err := expr.EvalPredicate(it.cond, row)
		if err != nil {
			return nil, err
		}
		if keep {
			return row, nil
		}
	}
}

// ---------------------------------------------------------------------------
// Project

// ProjectExec computes expressions per row.
type ProjectExec struct {
	Child  Exec
	Exprs  []expr.Expr
	schema *sqltypes.Schema
}

// NewProject builds a projection operator producing outSchema.
func NewProject(child Exec, exprs []expr.Expr, outSchema *sqltypes.Schema) *ProjectExec {
	return &ProjectExec{Child: child, Exprs: exprs, schema: outSchema}
}

// Schema implements Exec.
func (p *ProjectExec) Schema() *sqltypes.Schema { return p.schema }

// Children implements Exec.
func (p *ProjectExec) Children() []Exec { return []Exec{p.Child} }

func (p *ProjectExec) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project [" + strings.Join(parts, ", ") + "]"
}

// Execute implements Exec.
func (p *ProjectExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	child, err := p.Child.Execute(ec)
	if err != nil {
		return nil, err
	}
	exprs := p.Exprs
	st := ec.Stats(p)
	return ec.RDD.NewIterRDD(child, 0, func(_ *rdd.TaskContext, _ int, in sqltypes.RowIter) (sqltypes.RowIter, error) {
		return obs.Rows(st, &projectIter{in: in, exprs: exprs}), nil
	}), nil
}

type projectIter struct {
	in    sqltypes.RowIter
	exprs []expr.Expr
}

func (it *projectIter) Next() (sqltypes.Row, error) {
	row, err := it.in.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make(sqltypes.Row, len(it.exprs))
	for i, e := range it.exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Sort

// SortExec globally orders rows: it gathers all partitions into one (the
// planner relies on this) and sorts by the given orders.
type SortExec struct {
	Child  Exec
	Orders []SortOrder
}

// SortOrder is one physical sort term (bound expression).
type SortOrder struct {
	Expr expr.Expr
	Desc bool
}

// NewSort builds a global sort.
func NewSort(child Exec, orders []SortOrder) *SortExec {
	return &SortExec{Child: child, Orders: orders}
}

// Schema implements Exec.
func (s *SortExec) Schema() *sqltypes.Schema { return s.Child.Schema() }

// Children implements Exec.
func (s *SortExec) Children() []Exec { return []Exec{s.Child} }

func (s *SortExec) String() string {
	parts := make([]string, len(s.Orders))
	for i, o := range s.Orders {
		dir := "ASC"
		if o.Desc {
			dir = "DESC"
		}
		parts[i] = o.Expr.String() + " " + dir
	}
	return "Sort [" + strings.Join(parts, ", ") + "]"
}

// Execute implements Exec.
func (s *SortExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	child, err := s.Child.Execute(ec)
	if err != nil {
		return nil, err
	}
	orders := s.Orders
	st := ec.Stats(s)
	return ec.RDD.NewIterRDD(gather(ec, child), 0, func(tc *rdd.TaskContext, _ int, in sqltypes.RowIter) (sqltypes.RowIter, error) {
		// The drain computes the gathered input inline, so timing the
		// drain and sort makes wall= include the input.
		start := st.Clock()
		rows, err := sqltypes.Drain(in)
		if err != nil {
			return nil, err
		}
		if mem := tc.Mem(); mem != nil {
			// A row sort cannot spill: its whole buffer is charged.
			var bytes int64
			for _, r := range rows {
				bytes += rdd.RowBytes(r)
			}
			if err := mem.Reserve("Sort", bytes); err != nil {
				return nil, err
			}
			st.AddMem(bytes)
		}
		keys := make([]sqltypes.Row, len(rows))
		for i, r := range rows {
			k := make(sqltypes.Row, len(orders))
			for j, o := range orders {
				v, err := o.Expr.Eval(r)
				if err != nil {
					return nil, err
				}
				k[j] = v
			}
			keys[i] = k
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := keys[idx[a]], keys[idx[b]]
			for j, o := range orders {
				c := sqltypes.Compare(ka[j], kb[j])
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		out := make([]sqltypes.Row, len(rows))
		for i, ix := range idx {
			out[i] = rows[ix]
		}
		st.AddWallSince(start)
		return obs.Rows(st, sqltypes.NewSliceIter(out)), nil
	}), nil
}

// gather returns child as one partition: unchanged when it already is one,
// otherwise through a narrow gather that computes its partitions in order
// inside the consumer's task — no shuffle stage.
func gather(ec *ExecContext, child rdd.RDD) rdd.RDD {
	if child.NumPartitions() <= 1 {
		return child
	}
	return ec.RDD.NewGatherRDD(child)
}

// ---------------------------------------------------------------------------
// Limit

// LimitExec truncates output to N rows. A multi-partition child is
// gathered narrowly, so the limit stops computing partitions once it has N
// rows.
type LimitExec struct {
	Child Exec
	N     int64
}

// NewLimit builds a limit operator.
func NewLimit(child Exec, n int64) *LimitExec { return &LimitExec{Child: child, N: n} }

// Schema implements Exec.
func (l *LimitExec) Schema() *sqltypes.Schema { return l.Child.Schema() }

// Children implements Exec.
func (l *LimitExec) Children() []Exec { return []Exec{l.Child} }

func (l *LimitExec) String() string { return fmt.Sprintf("Limit %d", l.N) }

// Execute implements Exec.
func (l *LimitExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	child, err := l.Child.Execute(ec)
	if err != nil {
		return nil, err
	}
	return l.limit(ec, gather(ec, child)), nil
}

// ExecuteStreaming returns a per-partition limit without the gather.
// Streaming cursors use it when the limit sits at the plan root: the
// cursor truncates globally at N delivered rows and tears the stream down,
// while partition tasks still run in parallel ahead of it. Rows arrive in
// partition order either way, so the first N rows are the same ones
// Execute keeps.
func (l *LimitExec) ExecuteStreaming(ec *ExecContext) (rdd.RDD, error) {
	child, err := l.Child.Execute(ec)
	if err != nil {
		return nil, err
	}
	return l.limit(ec, child), nil
}

// limit truncates each partition of in to N rows.
func (l *LimitExec) limit(ec *ExecContext, in rdd.RDD) rdd.RDD {
	n := l.N
	st := ec.Stats(l)
	return ec.RDD.NewIterRDD(in, 0, func(_ *rdd.TaskContext, _ int, in sqltypes.RowIter) (sqltypes.RowIter, error) {
		return obs.Rows(st, &limitIter{in: in, left: n}), nil
	})
}

type limitIter struct {
	in   sqltypes.RowIter
	left int64
}

func (it *limitIter) Next() (sqltypes.Row, error) {
	if it.left <= 0 {
		return nil, nil
	}
	row, err := it.in.Next()
	if err != nil || row == nil {
		return nil, err
	}
	it.left--
	return row, nil
}

// ---------------------------------------------------------------------------
// Exchange

// ExchangeExec repartitions rows through the columnar shuffle by a hash of
// key ordinals (or into a single partition when Keys is empty): the map
// side batches its row child, the reduce side serves rows through a shim.
type ExchangeExec struct {
	Child         Exec
	Keys          []int
	NumPartitions int
}

// NewExchange builds a hash exchange.
func NewExchange(child Exec, keys []int, numPartitions int) *ExchangeExec {
	return &ExchangeExec{Child: child, Keys: keys, NumPartitions: numPartitions}
}

// Schema implements Exec.
func (e *ExchangeExec) Schema() *sqltypes.Schema { return e.Child.Schema() }

// Children implements Exec.
func (e *ExchangeExec) Children() []Exec { return []Exec{e.Child} }

func (e *ExchangeExec) String() string {
	if len(e.Keys) == 0 {
		return "Exchange single"
	}
	return fmt.Sprintf("Exchange hash%v n=%d", e.Keys, e.NumPartitions)
}

// Execute implements Exec.
func (e *ExchangeExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	return executeExchange(ec, e, e.Child, e.Keys, e.NumPartitions)
}

// executeExchange runs either exchange operator through the columnar
// shuffle; the two differ only in how EXPLAIN names them.
func executeExchange(ec *ExecContext, op, child Exec, keys []int, n int) (rdd.RDD, error) {
	in, err := child.Execute(ec)
	if err != nil {
		return nil, err
	}
	sh := ec.RDD.NewBatchShuffledRDD(in, child.Schema(), keys, n)
	sh.SetObs(ec.Stats(op))
	return sh, nil
}

// VecExchangeExec is the ExchangeExec the vectorize pass places between a
// vectorized producer and consumer. It runs the same columnar shuffle (map
// side scatters batches column-wise on a vectorized key hash, reduce side
// streams each map task's bucket back out); its own name marks in EXPLAIN
// that the data stays columnar straight through the stage boundary.
type VecExchangeExec struct {
	Child         Exec
	Keys          []int
	NumPartitions int
}

// NewVecExchange builds a columnar hash exchange.
func NewVecExchange(child Exec, keys []int, numPartitions int) *VecExchangeExec {
	return &VecExchangeExec{Child: child, Keys: keys, NumPartitions: numPartitions}
}

// Schema implements Exec.
func (e *VecExchangeExec) Schema() *sqltypes.Schema { return e.Child.Schema() }

// Children implements Exec.
func (e *VecExchangeExec) Children() []Exec { return []Exec{e.Child} }

func (e *VecExchangeExec) String() string {
	if len(e.Keys) == 0 {
		return "VecExchange single"
	}
	return fmt.Sprintf("VecExchange hash%v n=%d", e.Keys, e.NumPartitions)
}

// Execute implements Exec.
func (e *VecExchangeExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	return executeExchange(ec, e, e.Child, e.Keys, e.NumPartitions)
}

// ---------------------------------------------------------------------------
// Union

// UnionExec concatenates children with identical schemas.
type UnionExec struct {
	Inputs []Exec
}

// NewUnion builds a union operator.
func NewUnion(inputs ...Exec) *UnionExec { return &UnionExec{Inputs: inputs} }

// Schema implements Exec.
func (u *UnionExec) Schema() *sqltypes.Schema { return u.Inputs[0].Schema() }

// Children implements Exec.
func (u *UnionExec) Children() []Exec { return u.Inputs }

func (u *UnionExec) String() string { return fmt.Sprintf("Union (%d inputs)", len(u.Inputs)) }

// Execute implements Exec.
func (u *UnionExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	rdds := make([]rdd.RDD, len(u.Inputs))
	for i, in := range u.Inputs {
		r, err := in.Execute(ec)
		if err != nil {
			return nil, err
		}
		rdds[i] = r
	}
	return ec.RDD.NewUnionRDD(rdds...), nil
}
