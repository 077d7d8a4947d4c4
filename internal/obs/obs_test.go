package obs

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

func TestOpStatsNilSafe(t *testing.T) {
	var s *OpStats
	s.AddRowsIn(1)
	s.AddRowsOut(1)
	s.AddBatches(1)
	s.AddWall(1)
	s.AddMem(1)
	s.AddBytes(1)
	if s.RowsOut() != 0 || s.Selectivity() != -1 {
		t.Fatal("nil OpStats must read as zero")
	}
	var q *QueryStats
	q.TaskStarted()
	q.Event("x", 0, 0)
	q.Finish()
	if q.Op("x") != nil || q.TasksStarted() != 0 {
		t.Fatal("nil QueryStats must be inert")
	}
	q.Do(context.Background(), "op", func(context.Context) {})
}

type sliceRows struct {
	rows []sqltypes.Row
	pos  int
}

func (it *sliceRows) Next() (sqltypes.Row, error) {
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r, nil
}

func TestRowsWrapperCountsExactly(t *testing.T) {
	const n = flushEvery*2 + 37 // cross flush boundaries and leave a remainder
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt64(int64(i))}
	}
	st := &OpStats{Label: "test"}
	it := Rows(st, CountInto(st, &sliceRows{rows: rows}))
	for {
		r, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			break
		}
	}
	if st.RowsOut() != n {
		t.Fatalf("rows out = %d, want %d", st.RowsOut(), n)
	}
	if st.RowsIn() != n {
		t.Fatalf("rows in = %d, want %d", st.RowsIn(), n)
	}
	if sel := st.Selectivity(); sel != 1 {
		t.Fatalf("selectivity = %v, want 1", sel)
	}
}

func TestRowsWrapperDisabledPassThrough(t *testing.T) {
	in := &sliceRows{}
	if got := Rows(nil, in); got != sqltypes.RowIter(in) {
		t.Fatal("nil stats must return the input iterator unchanged")
	}
	if got := CountInto(nil, in); got != sqltypes.RowIter(in) {
		t.Fatal("nil stats must return the input iterator unchanged")
	}
}

func TestBatchesWrapperCounts(t *testing.T) {
	schema := sqltypes.NewSchema(sqltypes.Field{Name: "v", Type: sqltypes.Int64})
	b := vector.NewBatch(schema)
	for i := 0; i < 10; i++ {
		if err := b.AppendRow(sqltypes.Row{sqltypes.NewInt64(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	st := &OpStats{Label: "vec"}
	it := Batches(st, vector.NewSliceIter([]*vector.Batch{b}))
	for {
		got, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			break
		}
	}
	if st.Batches() != 1 || st.RowsOut() != 10 {
		t.Fatalf("batches=%d rows=%d, want 1/10", st.Batches(), st.RowsOut())
	}
	if Batches(nil, nil) != nil {
		t.Fatal("nil stats must pass through")
	}
}

func TestQueryStatsConcurrent(t *testing.T) {
	q := NewQueryStats("q1", "SELECT 1", NewTracer(16))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				q.TaskStarted()
				q.Event("task", p, time.Microsecond)
				q.AddShuffleBytes(10)
				q.TaskFinished()
			}
		}(i)
	}
	wg.Wait()
	if q.TasksStarted() != 800 || q.TasksCompleted() != 800 {
		t.Fatalf("tasks %d/%d, want 800/800", q.TasksStarted(), q.TasksCompleted())
	}
	if q.ShuffleBytes() != 8000 {
		t.Fatalf("shuffle bytes = %d, want 8000", q.ShuffleBytes())
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Query: "q1", Name: "e", Part: i})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// Oldest-first: the last 4 of 10 records, parts 6..9.
	for i, ev := range evs {
		if ev.Part != 6+i {
			t.Fatalf("event %d has part %d, want %d", i, ev.Part, 6+i)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	if got := tr.EventsFor("q2"); len(got) != 0 {
		t.Fatalf("EventsFor(q2) = %d events, want 0", len(got))
	}
}

func TestRegistryWriteTo(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries_started_total", "queries started")
	c.Add(3)
	r.Gauge("pool_used_bytes", "bytes in use", func() float64 { return 42 })
	h := r.Histogram("query_duration_seconds", "latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE queries_started_total counter",
		"queries_started_total 3",
		"# TYPE pool_used_bytes gauge",
		"pool_used_bytes 42",
		"# TYPE query_duration_seconds histogram",
		`query_duration_seconds_bucket{le="0.01"} 1`,
		`query_duration_seconds_bucket{le="1"} 2`,
		`query_duration_seconds_bucket{le="+Inf"} 3`,
		"query_duration_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteTo output missing %q:\n%s", want, out)
		}
	}
	if v, ok := r.Value("queries_started_total"); !ok || v != 3 {
		t.Fatalf("Value = %v/%v, want 3/true", v, ok)
	}
	if v, ok := r.Value("pool_used_bytes"); !ok || v != 42 {
		t.Fatalf("gauge Value = %v/%v, want 42/true", v, ok)
	}
}

func TestContextPlumbing(t *testing.T) {
	q := NewQueryStats("q9", "", nil)
	ctx := WithQuery(context.Background(), q)
	if got := FromContext(ctx); got != q {
		t.Fatal("FromContext must return the attached QueryStats")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("bare context must yield nil")
	}
	if WithQuery(context.Background(), nil) != context.Background() {
		t.Fatal("nil stats must not wrap the context")
	}
}

func TestQueryStatsDoLabels(t *testing.T) {
	q := NewQueryStats("q7", "", nil)
	for _, op := range []string{"", "VecHashAgg"} {
		ran := false
		q.Do(context.Background(), op, func(ctx context.Context) {
			ran = true
			if id, ok := pprof.Label(ctx, "query_id"); !ok || id != "q7" {
				t.Errorf("operator %q: query_id label = %q/%v, want q7", op, id, ok)
			}
			got, ok := pprof.Label(ctx, "operator")
			if op == "" && ok {
				t.Errorf("no operator: operator label %q set", got)
			}
			if op != "" && (!ok || got != op) {
				t.Errorf("operator label = %q/%v, want %q", got, ok, op)
			}
		})
		if !ran {
			t.Fatalf("operator %q: fn not run", op)
		}
	}
}
