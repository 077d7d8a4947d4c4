package stats

import (
	"fmt"
	"math"
	"testing"

	"indexeddf/internal/sqltypes"
)

func TestHLLEstimate(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 50000, 500000} {
		var h HLL
		for i := 0; i < n; i++ {
			h.Add(sqltypes.NewInt64(int64(i)).Hash64())
		}
		got := h.Estimate()
		relErr := math.Abs(float64(got)-float64(n)) / float64(n)
		// 1024 registers → ~3.25% std error; allow 5 sigma.
		if relErr > 0.17 {
			t.Errorf("n=%d: estimate %d, rel err %.1f%%", n, got, relErr*100)
		}
	}
}

func TestHLLDuplicatesDontInflate(t *testing.T) {
	var h HLL
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 100; i++ {
			h.Add(sqltypes.NewString(fmt.Sprintf("key-%d", i)).Hash64())
		}
	}
	if got := h.Estimate(); got < 90 || got > 110 {
		t.Errorf("100 distinct values observed 10x each: estimate %d", got)
	}
}

func TestTableObserveSnapshot(t *testing.T) {
	tbl := NewTable(3)
	var rows []sqltypes.Row
	for i := 0; i < 1000; i++ {
		v := sqltypes.NewInt64(int64(i % 10))
		s := sqltypes.NewString(fmt.Sprintf("s%d", i))
		nul := sqltypes.Null
		if i%4 != 0 {
			nul = sqltypes.NewFloat64(float64(i))
		}
		rows = append(rows, sqltypes.Row{v, s, nul})
	}
	tbl.Observe(rows)

	if tbl.Rows() != 1000 {
		t.Fatalf("rows = %d, want 1000", tbl.Rows())
	}
	cols := tbl.Snapshot()
	if len(cols) != 3 {
		t.Fatalf("snapshot has %d cols, want 3", len(cols))
	}
	c0 := cols[0]
	if c0.NDV < 9 || c0.NDV > 11 {
		t.Errorf("col0 NDV = %d, want ~10", c0.NDV)
	}
	if c0.Min.I != 0 || c0.Max.I != 9 {
		t.Errorf("col0 range = [%v,%v], want [0,9]", c0.Min, c0.Max)
	}
	if c0.Nulls != 0 {
		t.Errorf("col0 nulls = %d, want 0", c0.Nulls)
	}
	c2 := cols[2]
	if c2.Nulls != 250 {
		t.Errorf("col2 nulls = %d, want 250", c2.Nulls)
	}
	if got := c2.NullFraction(); got != 0.25 {
		t.Errorf("col2 null fraction = %v, want 0.25", got)
	}
}

func TestTableInvalidateRebuild(t *testing.T) {
	tbl := NewTable(1)
	rows := []sqltypes.Row{{sqltypes.NewInt64(1)}, {sqltypes.NewInt64(2)}}
	tbl.Observe(rows)
	if tbl.Snapshot() == nil {
		t.Fatal("snapshot nil after observe")
	}
	v := tbl.Version()
	tbl.Invalidate()
	if tbl.Snapshot() != nil {
		t.Fatal("snapshot not nil after invalidate")
	}
	if tbl.Valid() {
		t.Fatal("valid after invalidate")
	}
	if tbl.Version() == v {
		t.Fatal("version not bumped by invalidate")
	}
	tbl.Rebuild(rows[:1])
	cols := tbl.Snapshot()
	if cols == nil || cols[0].Count != 1 {
		t.Fatalf("rebuild: snapshot %+v, want count 1", cols)
	}
	if cols[0].Min.I != 1 || cols[0].Max.I != 1 {
		t.Errorf("rebuild range = [%v,%v], want [1,1]", cols[0].Min, cols[0].Max)
	}
}

func TestNilTableSafe(t *testing.T) {
	var tbl *Table
	tbl.Observe([]sqltypes.Row{{sqltypes.NewInt64(1)}})
	tbl.Invalidate()
	tbl.Rebuild(nil)
	if tbl.Snapshot() != nil || tbl.Valid() || tbl.Rows() != 0 || tbl.Version() != 0 {
		t.Fatal("nil Table methods must be no-ops")
	}
}

func TestNDVCappedAtNonNullCount(t *testing.T) {
	tbl := NewTable(1)
	tbl.Observe([]sqltypes.Row{{sqltypes.NewInt64(7)}, {sqltypes.NewInt64(8)}})
	cols := tbl.Snapshot()
	if cols[0].NDV > 2 {
		t.Errorf("NDV = %d exceeds non-null count 2", cols[0].NDV)
	}
}

func TestConcurrentObserve(t *testing.T) {
	tbl := NewTable(1)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 250; i++ {
				tbl.Observe([]sqltypes.Row{{sqltypes.NewInt64(int64(g*1000 + i))}})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if tbl.Rows() != 1000 {
		t.Fatalf("rows = %d, want 1000", tbl.Rows())
	}
}

func TestSnapshotMemoized(t *testing.T) {
	tbl := NewTable(1)
	tbl.Observe([]sqltypes.Row{{sqltypes.NewInt64(1)}, {sqltypes.NewInt64(2)}})
	first := tbl.Snapshot()
	if again := tbl.Snapshot(); &again[0] != &first[0] {
		t.Fatal("two snapshots with no mutation between them returned different slices")
	}

	tbl.Observe([]sqltypes.Row{{sqltypes.NewInt64(9)}})
	cols := tbl.Snapshot()
	if &cols[0] == &first[0] {
		t.Fatal("snapshot not refreshed after Observe")
	}
	if cols[0].Count != 3 || cols[0].Max.I != 9 || cols[0].NDV != 3 {
		t.Fatalf("after Observe: count %d max %v ndv %d, want 3, 9, 3", cols[0].Count, cols[0].Max, cols[0].NDV)
	}
	if first[0].Count != 2 || first[0].Max.I != 2 {
		t.Fatalf("earlier snapshot changed under a later Observe: %+v", first[0])
	}

	tbl.Invalidate()
	if tbl.Snapshot() != nil {
		t.Fatal("snapshot not nil after Invalidate")
	}
	tbl.Rebuild([]sqltypes.Row{{sqltypes.NewInt64(5)}})
	cols = tbl.Snapshot()
	if cols == nil || cols[0].Count != 1 || cols[0].Min.I != 5 || cols[0].Max.I != 5 {
		t.Fatalf("after Rebuild: snapshot %+v, want one row of 5", cols)
	}
	tbl.Rebuild(nil)
	if cols = tbl.Snapshot(); cols == nil || cols[0].Count != 0 || !cols[0].Min.IsNull() {
		t.Fatalf("after empty Rebuild: snapshot %+v, want an empty column", cols)
	}
}

func TestConcurrentObserveSnapshot(t *testing.T) {
	tbl := NewTable(2)
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				v := sqltypes.NewInt64(int64(g*1000 + i))
				tbl.Observe([]sqltypes.Row{{v, v}})
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var last int64
			for i := 0; i < 500; i++ {
				cols := tbl.Snapshot()
				if cols[0].Count < last || cols[1].Count != cols[0].Count {
					t.Errorf("snapshot count %d/%d after %d", cols[0].Count, cols[1].Count, last)
					return
				}
				last = cols[0].Count
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if cols := tbl.Snapshot(); cols[0].Count != 1000 || cols[1].Max.I != 1499 {
		t.Fatalf("final snapshot count %d max %v, want 1000, 1499", cols[0].Count, cols[1].Max)
	}
}

func BenchmarkTableObserve(b *testing.B) {
	rows := make([]sqltypes.Row, 1000)
	for i := range rows {
		rows[i] = sqltypes.Row{
			sqltypes.NewString(fmt.Sprintf("tag-%d", i%16)),
			sqltypes.NewInt64(int64(i)),
			sqltypes.NewInt64(int64(i * 7 % 1000)),
			sqltypes.NewFloat64(float64(i) * 1.5),
		}
	}
	t := NewTable(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Observe(rows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)*4), "ns/value")
}
