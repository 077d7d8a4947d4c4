package rdd

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

func intRows(n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt64(int64(i))}
	}
	return rows
}

func intSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(sqltypes.Field{Name: "k", Type: sqltypes.Int64})
}

func rowInts(rows []sqltypes.Row) []int {
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = int(r[0].Int64Val())
	}
	sort.Ints(out)
	return out
}

func TestParallelizeAndCollect(t *testing.T) {
	c := NewContext(WithParallelism(4))
	r := c.Parallelize(intRows(100), 7)
	if r.NumPartitions() != 7 {
		t.Fatalf("NumPartitions = %d", r.NumPartitions())
	}
	rows, err := c.Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	got := rowInts(rows)
	if len(got) != 100 || got[0] != 0 || got[99] != 99 {
		t.Fatalf("Collect lost rows: %d rows", len(got))
	}
	n, err := c.Count(r)
	if err != nil || n != 100 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestParallelizeEmptyAndSmall(t *testing.T) {
	c := NewContext()
	r := c.Parallelize(nil, 4)
	rows, err := c.Collect(r)
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty collect: %v %v", rows, err)
	}
	// Fewer rows than partitions.
	r2 := c.Parallelize(intRows(2), 8)
	rows2, err := c.Collect(r2)
	if err != nil || len(rows2) != 2 {
		t.Fatalf("small collect: %v %v", rows2, err)
	}
}

func TestIterRDDPipelining(t *testing.T) {
	c := NewContext()
	base := c.Parallelize(intRows(50), 4)
	doubled := c.NewIterRDD(base, 0, func(_ *TaskContext, _ int, in sqltypes.RowIter) (sqltypes.RowIter, error) {
		rows, err := sqltypes.Drain(in)
		if err != nil {
			return nil, err
		}
		out := make([]sqltypes.Row, 0, len(rows))
		for _, r := range rows {
			out = append(out, sqltypes.Row{sqltypes.NewInt64(r[0].Int64Val() * 2)})
		}
		return sqltypes.NewSliceIter(out), nil
	})
	rows, err := c.Collect(doubled)
	if err != nil {
		t.Fatal(err)
	}
	got := rowInts(rows)
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestShuffleGroupsByKey(t *testing.T) {
	c := NewContext(WithParallelism(2))
	base := c.Parallelize(intRows(1000), 8)
	sh := c.NewBatchShuffledRDD(base, intSchema(), []int{0}, 5)
	parts, err := c.RunJob(sh)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5 {
		t.Fatalf("reduce partitions = %d", len(parts))
	}
	// Every row lands exactly once, in the partition its hash selects.
	total := 0
	for p, rows := range parts {
		total += len(rows)
		for _, r := range rows {
			if want := int(r[0].Hash64() % 5); want != p {
				t.Fatalf("row %v in partition %d, want %d", r, p, want)
			}
		}
	}
	if total != 1000 {
		t.Fatalf("total rows after shuffle = %d", total)
	}
}

func TestShuffleChain(t *testing.T) {
	// Two shuffles back to back exercise multi-stage scheduling.
	c := NewContext()
	base := c.Parallelize(intRows(200), 4)
	s1 := c.NewBatchShuffledRDD(base, intSchema(), []int{0}, 3)
	s2 := c.NewBatchShuffledRDD(s1, intSchema(), nil, 1)
	rows, err := c.Collect(s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("rows after two shuffles = %d", len(rows))
	}
}

func TestUnionRDD(t *testing.T) {
	c := NewContext()
	a := c.Parallelize(intRows(10), 2)
	b := c.Parallelize(intRows(5), 3)
	u := c.NewUnionRDD(a, b)
	if u.NumPartitions() != 5 {
		t.Fatalf("union partitions = %d", u.NumPartitions())
	}
	rows, err := c.Collect(u)
	if err != nil || len(rows) != 15 {
		t.Fatalf("union rows = %d, %v", len(rows), err)
	}
}

func TestComputeErrorPropagates(t *testing.T) {
	c := NewContext()
	boom := errors.New("boom")
	bad := c.NewIterRDD(nil, 4, func(_ *TaskContext, p int, _ sqltypes.RowIter) (sqltypes.RowIter, error) {
		if p == 2 {
			return nil, boom
		}
		return sqltypes.NewSliceIter(nil), nil
	})
	if _, err := c.Collect(bad); err == nil || !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	// Error inside a shuffle map stage propagates too.
	sh := c.NewBatchShuffledRDD(bad, intSchema(), nil, 1)
	if _, err := c.Collect(sh); err == nil || !errors.Is(err, boom) {
		t.Fatalf("shuffle error not propagated: %v", err)
	}
}

func TestShuffleFetchWithoutStageFails(t *testing.T) {
	m := NewShuffleManager()
	if _, err := m.OpenBatchReader(42, 0, nil); err == nil {
		t.Fatal("reading an unknown shuffle should fail")
	}
}

func TestShuffleDropAllowsRerun(t *testing.T) {
	m := NewShuffleManager()
	runs := 0
	_ = m.RunOnce(1, func() error { runs++; return nil })
	_ = m.RunOnce(1, func() error { runs++; return nil })
	if runs != 1 {
		t.Fatalf("RunOnce ran %d times", runs)
	}
	m.Drop(1)
	_ = m.RunOnce(1, func() error { runs++; return nil })
	if runs != 2 {
		t.Fatalf("RunOnce after Drop ran %d times", runs)
	}
}

// TestHashColumnsRoutingDeterminism: the exchange's routing hash is
// stable, lands in range, and matches the value hash the index
// partitions by.
func TestHashColumnsRoutingDeterminism(t *testing.T) {
	b := vector.NewBatch(intSchema())
	for i := 0; i < 100; i++ {
		if err := b.AppendRow(sqltypes.Row{sqltypes.NewInt64(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	first := vector.HashColumns(b, []int{0}, nil)
	second := vector.HashColumns(b, []int{0}, nil)
	for i := range first {
		a, c := int(first[i]%7), int(second[i]%7)
		if a != c || a < 0 || a >= 7 {
			t.Fatalf("routing unstable or out of range: %d %d", a, c)
		}
		if want := int(sqltypes.NewInt64(int64(i)).Hash64() % 7); a != want {
			t.Fatalf("row %d routes to %d, value hash picks %d", i, a, want)
		}
	}
}

// TestGatherRDD pins the narrow gather: one partition holding the
// parent's partitions in order, child errors surfacing, a limit above it
// stopping before later partitions are computed, and cancellation
// checked between partitions.
func TestGatherRDD(t *testing.T) {
	c := NewContext(WithParallelism(4))
	g := c.NewGatherRDD(c.Parallelize(intRows(100), 7))
	if g.NumPartitions() != 1 {
		t.Fatalf("gather partitions = %d", g.NumPartitions())
	}
	rows, err := c.Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("gathered %d rows, want 100", len(rows))
	}
	for i, r := range rows {
		if r[0].Int64Val() != int64(i) {
			t.Fatalf("row %d = %v: partition order lost", i, r)
		}
	}

	boom := errors.New("boom")
	bad := c.NewIterRDD(nil, 4, func(_ *TaskContext, p int, _ sqltypes.RowIter) (sqltypes.RowIter, error) {
		if p == 2 {
			return nil, boom
		}
		return sqltypes.NewSliceIter(intRows(3)), nil
	})
	if _, err := c.Collect(c.NewGatherRDD(bad)); !errors.Is(err, boom) {
		t.Fatalf("child error not propagated: %v", err)
	}

	// counted builds an 8-partition parent of 10 rows each that counts the
	// partitions it computes and runs hook after computing one.
	counted := func(computed *atomic.Int64, hook func()) RDD {
		return c.NewIterRDD(nil, 8, func(_ *TaskContext, _ int, _ sqltypes.RowIter) (sqltypes.RowIter, error) {
			computed.Add(1)
			hook()
			return sqltypes.NewSliceIter(intRows(10)), nil
		})
	}
	var computed atomic.Int64
	limited := c.NewIterRDD(c.NewGatherRDD(counted(&computed, func() {})), 0,
		func(_ *TaskContext, _ int, in sqltypes.RowIter) (sqltypes.RowIter, error) {
			var out []sqltypes.Row
			for len(out) < 5 {
				r, err := in.Next()
				if err != nil || r == nil {
					return nil, err
				}
				out = append(out, r)
			}
			return sqltypes.NewSliceIter(out), nil
		})
	if rows, err := c.Collect(limited); err != nil || len(rows) != 5 {
		t.Fatalf("limit over gather: %d rows, %v", len(rows), err)
	}
	if n := computed.Load(); n != 1 {
		t.Fatalf("limit over gather computed %d partitions, want 1", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	computed.Store(0)
	if _, err := c.CollectCtx(ctx, c.NewGatherRDD(counted(&computed, cancel))); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled gather: err = %v, want context.Canceled", err)
	}
	if n := computed.Load(); n != 1 {
		t.Fatalf("cancelled gather computed %d partitions, want 1", n)
	}
}

func TestStreamJobDeliversPartitionOrderAndCancels(t *testing.T) {
	c := NewContext(WithParallelism(2))
	base := c.Parallelize(intRows(10_000), 16)
	// Streamed rows match Collect order.
	want, err := c.Collect(base)
	if err != nil {
		t.Fatal(err)
	}
	s := c.StreamJob(context.Background(), base)
	var got []sqltypes.Row
	for {
		row, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		got = append(got, row)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i][0].I != want[i][0].I {
			t.Fatalf("row %d: %v vs %v", i, got[i], want[i])
		}
	}

	// Cancellation surfaces the context error and stops the job.
	ctx, cancel := context.WithCancel(context.Background())
	s2 := c.StreamJob(ctx, base)
	if _, err := s2.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		row, err := s2.Next()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			break
		}
		if row == nil {
			// The buffered partitions drained before the cancel landed;
			// that is a legal (if unlikely) outcome for this small job.
			break
		}
	}
	s2.Close()

	// Close is idempotent and releases cleanly after exhaustion.
	s.Close()
}
