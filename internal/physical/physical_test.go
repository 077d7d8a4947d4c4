package physical

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"indexeddf/internal/catalog"
	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/memory"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
)

func schema2() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Field{Name: "k", Type: sqltypes.Int64},
		sqltypes.Field{Name: "v", Type: sqltypes.String},
	)
}

func rowsN(n, mod int) []sqltypes.Row {
	out := make([]sqltypes.Row, n)
	for i := range out {
		out[i] = sqltypes.Row{sqltypes.NewInt64(int64(i % mod)), sqltypes.NewString("v")}
	}
	return out
}

func ec() *ExecContext { return NewExecContext(rdd.NewContext()) }

func collect(t *testing.T, e Exec) []sqltypes.Row {
	t.Helper()
	c := ec()
	r, err := e.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.RDD.Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func valuesExec(rows []sqltypes.Row) *ValuesExec { return NewValues(rows, schema2()) }

func TestFilterExec(t *testing.T) {
	cond := expr.NewCmp(expr.Eq, expr.B(0, sqltypes.Int64, "k"), expr.LitInt64(3))
	out := collect(t, NewFilter(valuesExec(rowsN(100, 10)), cond))
	if len(out) != 10 {
		t.Fatalf("filter rows = %d", len(out))
	}
}

func TestProjectExec(t *testing.T) {
	exprs := []expr.Expr{
		expr.NewArith(expr.Mul, expr.B(0, sqltypes.Int64, "k"), expr.LitInt64(2)),
	}
	out := collect(t, NewProject(valuesExec(rowsN(5, 100)), exprs,
		sqltypes.NewSchema(sqltypes.Field{Name: "x", Type: sqltypes.Int64})))
	for i, r := range out {
		if r[0].Int64Val() != int64(i*2) {
			t.Fatalf("project row %d = %v", i, r)
		}
	}
}

func TestSortExecMultiplePartitions(t *testing.T) {
	c := ec()
	rows := rowsN(50, 50)
	// Shuffle input order across partitions.
	base := c.RDD.Parallelize(append(rows[25:], rows[:25]...), 4)
	wrap := &rddExec{r: base, schema: schema2()}
	sorted := NewSort(wrap, []SortOrder{{Expr: expr.B(0, sqltypes.Int64, "k"), Desc: true}})
	r, err := sorted.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.RDD.Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("sorted rows = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1][0].Int64Val() < out[i][0].Int64Val() {
			t.Fatal("not sorted desc")
		}
	}
}

// TestSortExecChargesBuffer: a row sort cannot spill, so its gathered
// buffer counts against the query budget and an over-budget sort fails
// naming the sort.
func TestSortExecChargesBuffer(t *testing.T) {
	tr := memory.NewPool(0).NewTracker("q1", 4<<10)
	defer tr.Close()
	c := NewExecContextCtx(memory.WithTracker(context.Background(), tr), rdd.NewContext())
	wrap := &rddExec{r: c.RDD.Parallelize(rowsN(1000, 50), 4), schema: schema2()}
	sorted := NewSort(wrap, []SortOrder{{Expr: expr.B(0, sqltypes.Int64, "k")}})
	_, err := c.RDD.CollectCtx(c.Ctx, mustExec(t, c, sorted))
	var le *memory.LimitError
	if !errors.As(err, &le) || le.Operator != "Sort" {
		t.Fatalf("over-budget row sort: err = %v, want a limit error naming Sort", err)
	}
}

// rddExec adapts a raw RDD for operator tests.
type rddExec struct {
	r      rdd.RDD
	schema *sqltypes.Schema
}

func (e *rddExec) Schema() *sqltypes.Schema              { return e.schema }
func (e *rddExec) Children() []Exec                      { return nil }
func (e *rddExec) String() string                        { return "rddExec" }
func (e *rddExec) Execute(*ExecContext) (rdd.RDD, error) { return e.r, nil }

func TestLimitExecAcrossPartitions(t *testing.T) {
	c := ec()
	base := c.RDD.Parallelize(rowsN(100, 100), 5)
	wrap := &rddExec{r: base, schema: schema2()}
	out, err := c.RDD.Collect(mustExec(t, c, NewLimit(wrap, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 {
		t.Fatalf("limit rows = %d", len(out))
	}
}

func mustExec(t *testing.T, c *ExecContext, e Exec) rdd.RDD {
	t.Helper()
	r, err := e.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestHashAggPartialFinalPipeline(t *testing.T) {
	groups := []expr.Expr{expr.B(0, sqltypes.Int64, "k")}
	aggs := []expr.Agg{
		{Func: expr.CountStarAgg, Name: "cnt"},
		{Func: expr.SumAgg, Arg: expr.B(0, sqltypes.Int64, "k"), Name: "s"},
		{Func: expr.AvgAgg, Arg: expr.B(0, sqltypes.Int64, "k"), Name: "a"},
		{Func: expr.MinAgg, Arg: expr.B(0, sqltypes.Int64, "k"), Name: "mn"},
		{Func: expr.MaxAgg, Arg: expr.B(0, sqltypes.Int64, "k"), Name: "mx"},
	}
	in := valuesExec(rowsN(100, 10))
	partial := NewHashAgg(in, groups, aggs, AggPartial, PartialSchema(groups, aggs))
	exch := NewExchange(partial, []int{0}, 3)
	finalSchema := sqltypes.NewSchema(
		sqltypes.Field{Name: "k", Type: sqltypes.Int64},
		sqltypes.Field{Name: "cnt", Type: sqltypes.Int64},
		sqltypes.Field{Name: "s", Type: sqltypes.Int64},
		sqltypes.Field{Name: "a", Type: sqltypes.Float64},
		sqltypes.Field{Name: "mn", Type: sqltypes.Int64},
		sqltypes.Field{Name: "mx", Type: sqltypes.Int64},
	)
	final := NewHashAgg(exch, groups, aggs, AggFinal, finalSchema)
	out := collect(t, final)
	if len(out) != 10 {
		t.Fatalf("groups = %d", len(out))
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Int64Val() < out[j][0].Int64Val() })
	for k, r := range out {
		if r[0].Int64Val() != int64(k) || r[1].Int64Val() != 10 ||
			r[2].Int64Val() != int64(k*10) || r[3].Float64Val() != float64(k) ||
			r[4].Int64Val() != int64(k) || r[5].Int64Val() != int64(k) {
			t.Fatalf("group %d = %v", k, r)
		}
	}
}

func TestHashAggNullHandling(t *testing.T) {
	rows := []sqltypes.Row{
		{sqltypes.NewInt64(1), sqltypes.NewString("a")},
		{sqltypes.Null, sqltypes.NewString("b")},
		{sqltypes.NewInt64(3), sqltypes.Null},
	}
	aggs := []expr.Agg{
		{Func: expr.CountStarAgg, Name: "star"},
		{Func: expr.CountAgg, Arg: expr.B(0, sqltypes.Int64, "k"), Name: "ck"},
		{Func: expr.SumAgg, Arg: expr.B(0, sqltypes.Int64, "k"), Name: "s"},
	}
	in := NewValues(rows, schema2())
	partial := NewHashAgg(in, nil, aggs, AggPartial, PartialSchema(nil, aggs))
	exch := NewExchange(partial, nil, 1)
	final := NewHashAgg(exch, nil, aggs, AggFinal, sqltypes.NewSchema(
		sqltypes.Field{Name: "star", Type: sqltypes.Int64},
		sqltypes.Field{Name: "ck", Type: sqltypes.Int64},
		sqltypes.Field{Name: "s", Type: sqltypes.Int64},
	))
	out := collect(t, final)
	if len(out) != 1 {
		t.Fatalf("rows = %d", len(out))
	}
	r := out[0]
	if r[0].Int64Val() != 3 || r[1].Int64Val() != 2 || r[2].Int64Val() != 4 {
		t.Fatalf("agg = %v", r)
	}
}

func joinInputs() (l, r Exec) {
	lrows := []sqltypes.Row{
		{sqltypes.NewInt64(1), sqltypes.NewString("l1")},
		{sqltypes.NewInt64(2), sqltypes.NewString("l2")},
		{sqltypes.NewInt64(2), sqltypes.NewString("l2b")},
		{sqltypes.Null, sqltypes.NewString("lnull")},
		{sqltypes.NewInt64(9), sqltypes.NewString("lonely")},
	}
	rrows := []sqltypes.Row{
		{sqltypes.NewInt64(1), sqltypes.NewString("r1")},
		{sqltypes.NewInt64(2), sqltypes.NewString("r2")},
		{sqltypes.Null, sqltypes.NewString("rnull")},
	}
	return NewValues(lrows, schema2()), NewValues(rrows, schema2())
}

func checkInnerJoin(t *testing.T, out []sqltypes.Row) {
	t.Helper()
	if len(out) != 3 {
		t.Fatalf("inner join rows = %d: %v", len(out), out)
	}
	for _, r := range out {
		if r[0] != r[2] {
			t.Fatalf("mismatched join row %v", r)
		}
	}
}

func TestShuffleHashJoin(t *testing.T) {
	l, r := joinInputs()
	out := collect(t, NewShuffleHashJoin(l, r, []int{0}, []int{0}, InnerJoin, nil, 3))
	checkInnerJoin(t, out)
	// Left outer keeps unmatched and null-keyed left rows.
	outer := collect(t, NewShuffleHashJoin(l, r, []int{0}, []int{0}, LeftOuterJoin, nil, 3))
	if len(outer) != 5 {
		t.Fatalf("left outer rows = %d", len(outer))
	}
}

func TestBroadcastHashJoinBothOrientations(t *testing.T) {
	l, r := joinInputs()
	// Build = right.
	out := collect(t, NewBroadcastHashJoin(l, r, []int{0}, []int{0}, true, InnerJoin, nil))
	checkInnerJoin(t, out)
	// Build = left (stream right): output must still be left-then-right.
	out2 := collect(t, NewBroadcastHashJoin(r, l, []int{0}, []int{0}, false, InnerJoin, nil))
	checkInnerJoin(t, out2)
	for _, row := range out2 {
		if !strings.HasPrefix(row[1].StringVal(), "l") {
			t.Fatalf("column order broken: %v", row)
		}
	}
}

func TestNestedLoopJoin(t *testing.T) {
	l, r := joinInputs()
	cond := expr.NewCmp(expr.Lt,
		expr.B(0, sqltypes.Int64, "lk"), expr.B(2, sqltypes.Int64, "rk"))
	out := collect(t, NewNestedLoopJoin(l, r, InnerJoin, cond))
	// pairs with lk < rk: (1,2) and nothing else (nulls never match).
	if len(out) != 1 || out[0][0].Int64Val() != 1 || out[0][2].Int64Val() != 2 {
		t.Fatalf("nested loop = %v", out)
	}
	outer := collect(t, NewNestedLoopJoin(l, r, LeftOuterJoin, cond))
	if len(outer) != 5 {
		t.Fatalf("nested loop outer = %d rows", len(outer))
	}
}

func indexedCatalogTable(t *testing.T, n, mod int) *catalog.IndexedTable {
	t.Helper()
	ct, err := core.NewIndexedTable(schema2(), 0, core.Options{NumPartitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Append(rowsN(n, mod)); err != nil {
		t.Fatal(err)
	}
	return catalog.NewIndexedTable("it", ct)
}

func TestIndexedScanAndLookup(t *testing.T) {
	it := indexedCatalogTable(t, 100, 10)
	out := collect(t, NewIndexedScan(it, nil, it.Schema()))
	if len(out) != 100 {
		t.Fatalf("indexed scan rows = %d", len(out))
	}
	// Projection path.
	proj := collect(t, NewIndexedScan(it, []int{1}, it.Schema().Project([]int{1})))
	if len(proj) != 100 || len(proj[0]) != 1 {
		t.Fatalf("projected scan: %d rows of %d cols", len(proj), len(proj[0]))
	}
	// Lookup.
	lk := collect(t, NewIndexLookup(it, sqltypes.NewInt64(4), nil, it.Schema()))
	if len(lk) != 10 {
		t.Fatalf("lookup rows = %d", len(lk))
	}
	// Lookup with residual.
	res := expr.NewCmp(expr.Ne, expr.B(1, sqltypes.String, "v"), expr.LitString("v"))
	lk2 := collect(t, NewIndexLookup(it, sqltypes.NewInt64(4), res, it.Schema()))
	if len(lk2) != 0 {
		t.Fatalf("residual lookup rows = %d", len(lk2))
	}
}

func TestIndexedJoinBroadcastAndShuffleAgree(t *testing.T) {
	it := indexedCatalogTable(t, 60, 6)
	probe := NewValues(rowsN(12, 6), schema2())
	outSchema := it.Schema().Concat(schema2())
	b := collect(t, NewIndexedJoin(it, probe, 0, true, true, InnerJoin, nil, outSchema))
	s := collect(t, NewIndexedJoin(it, probe, 0, true, false, InnerJoin, nil, outSchema))
	if len(b) != len(s) || len(b) != 12*10 {
		t.Fatalf("broadcast %d vs shuffle %d rows (want %d)", len(b), len(s), 12*10)
	}
	canon := func(rows []sqltypes.Row) string {
		strs := make([]string, len(rows))
		for i, r := range rows {
			strs[i] = r.String()
		}
		sort.Strings(strs)
		return strings.Join(strs, "|")
	}
	if canon(b) != canon(s) {
		t.Fatal("broadcast and shuffle indexed joins disagree")
	}
}

func TestIndexedJoinLeftOuterProbeLeft(t *testing.T) {
	it := indexedCatalogTable(t, 10, 10)
	probeRows := []sqltypes.Row{
		{sqltypes.NewInt64(1), sqltypes.NewString("hit")},
		{sqltypes.NewInt64(99), sqltypes.NewString("miss")},
		{sqltypes.Null, sqltypes.NewString("null")},
	}
	probe := NewValues(probeRows, schema2())
	outSchema := schema2().Concat(it.Schema())
	out := collect(t, NewIndexedJoin(it, probe, 0, false, true, LeftOuterJoin, nil, outSchema))
	if len(out) != 3 {
		t.Fatalf("left outer indexed join rows = %d", len(out))
	}
	misses := 0
	for _, r := range out {
		if r[2].IsNull() {
			misses++
		}
	}
	if misses != 2 {
		t.Fatalf("null-padded rows = %d, want 2", misses)
	}
}

func TestSnapshotMemoizationPerQuery(t *testing.T) {
	it := indexedCatalogTable(t, 10, 10)
	c := ec()
	s1 := c.SnapshotOf(it.Core())
	s2 := c.SnapshotOf(it.Core())
	if s1 != s2 {
		t.Fatal("snapshots not memoized within a query")
	}
	c2 := ec()
	if c2.SnapshotOf(it.Core()) == s1 {
		t.Fatal("snapshot shared across queries")
	}
}

func TestUnionExec(t *testing.T) {
	a := valuesExec(rowsN(3, 10))
	b := valuesExec(rowsN(4, 10))
	out := collect(t, NewUnion(a, b))
	if len(out) != 7 {
		t.Fatalf("union rows = %d", len(out))
	}
}

func TestNormalizeKeyAndEncodeValues(t *testing.T) {
	if NormalizeKey(sqltypes.NewInt32(5)) != sqltypes.NewInt64(5) {
		t.Fatal("int32 not normalized")
	}
	if NormalizeKey(sqltypes.NewFloat64(5)) != sqltypes.NewInt64(5) {
		t.Fatal("integral double not normalized")
	}
	if NormalizeKey(sqltypes.NewFloat64(5.5)).T != sqltypes.Float64 {
		t.Fatal("fractional double mangled")
	}
	a := string(appendValuesKey(nil, []sqltypes.Value{sqltypes.NewInt32(5), sqltypes.NewString("x")}))
	b := string(appendValuesKey(nil, []sqltypes.Value{sqltypes.NewInt64(5), sqltypes.NewString("x")}))
	if a != b {
		t.Fatal("equal composite keys encode differently")
	}
	c := string(appendValuesKey(nil, []sqltypes.Value{sqltypes.Null}))
	d := string(appendValuesKey(nil, []sqltypes.Value{sqltypes.NewInt64(0)}))
	if c == d {
		t.Fatal("NULL collides with zero")
	}
}

// TestOpNameLabels pins the operator label of every Exec type: the
// memoized label must be exactly the type name without "Exec", on the
// first (uncached) and later (cached) calls alike.
func TestOpNameLabels(t *testing.T) {
	cases := []struct {
		e    Exec
		want string
	}{
		{&BroadcastHashJoinExec{}, "BroadcastHashJoin"},
		{&ColumnarScanExec{}, "ColumnarScan"},
		{&ExchangeExec{}, "Exchange"},
		{&FilterExec{}, "Filter"},
		{&HashAggExec{}, "HashAgg"},
		{&IndexLookupExec{}, "IndexLookup"},
		{&IndexedJoinExec{}, "IndexedJoin"},
		{&IndexedScanExec{}, "IndexedScan"},
		{&LimitExec{}, "Limit"},
		{&NestedLoopJoinExec{}, "NestedLoopJoin"},
		{&ProjectExec{}, "Project"},
		{&ShuffleHashJoinExec{}, "ShuffleHashJoin"},
		{&SortExec{}, "Sort"},
		{&UnionExec{}, "Union"},
		{&ValuesExec{}, "Values"},
		{&VecBroadcastHashJoinExec{}, "VecBroadcastHashJoin"},
		{&VecColumnarScanExec{}, "VecColumnarScan"},
		{&VecExchangeExec{}, "VecExchange"},
		{&VecFilterExec{}, "VecFilter"},
		{&VecHashAggExec{}, "VecHashAgg"},
		{&VecIndexedJoinExec{}, "VecIndexedJoin"},
		{&VecIndexedScanExec{}, "VecIndexedScan"},
		{&VecProjectExec{}, "VecProject"},
		{&VecShuffleHashJoinExec{}, "VecShuffleHashJoin"},
		{&VecSortExec{}, "VecSort"},
		{&VecTopNExec{}, "VecTopN"},
		{&VecViewScanExec{}, "VecViewScan"},
		{&ViewScanExec{}, "ViewScan"},
	}
	for _, tc := range cases {
		for call := 0; call < 2; call++ {
			if got := opName(tc.e); got != tc.want {
				t.Errorf("opName(%T) call %d = %q, want %q", tc.e, call, got, tc.want)
			}
		}
	}
}
