package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"indexeddf/internal/ctrie"
	"indexeddf/internal/rowbatch"
	"indexeddf/internal/sqltypes"
)

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Field{Name: "id", Type: sqltypes.Int64},
		sqltypes.Field{Name: "name", Type: sqltypes.String, Nullable: true},
		sqltypes.Field{Name: "score", Type: sqltypes.Float64, Nullable: true},
	)
}

func mkRow(id int64, name string, score float64) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewInt64(id),
		sqltypes.NewString(name),
		sqltypes.NewFloat64(score),
	}
}

func newTable(t *testing.T, parts int) *IndexedTable {
	t.Helper()
	tbl, err := NewIndexedTable(testSchema(), 0, Options{NumPartitions: parts, BatchSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewIndexedTableValidation(t *testing.T) {
	if _, err := NewIndexedTable(testSchema(), 5, Options{}); err == nil {
		t.Fatal("out-of-range key column accepted")
	}
	tbl, err := NewIndexedTable(testSchema(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumPartitions() != 4 {
		t.Fatalf("default partitions = %d", tbl.NumPartitions())
	}
	if tbl.KeyColumn() != 0 || !tbl.Schema().Equal(testSchema()) {
		t.Fatal("accessors broken")
	}
}

func TestAppendAndGetRows(t *testing.T) {
	tbl := newTable(t, 3)
	var rows []sqltypes.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, mkRow(i%10, fmt.Sprintf("n%d", i), float64(i)))
	}
	if err := tbl.Append(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 100 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
	if tbl.DistinctKeys() != 10 {
		t.Fatalf("DistinctKeys = %d", tbl.DistinctKeys())
	}
	snap := tbl.Snapshot()
	got, err := snap.GetRows(sqltypes.NewInt64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("GetRows(3) returned %d rows, want 10", len(got))
	}
	// Newest first: the last appended row for key 3 is i=93.
	if got[0][1].StringVal() != "n93" {
		t.Fatalf("newest row = %v", got[0])
	}
	if got[9][1].StringVal() != "n3" {
		t.Fatalf("oldest row = %v", got[9])
	}
	// Missing key returns empty.
	none, err := snap.GetRows(sqltypes.NewInt64(999))
	if err != nil || len(none) != 0 {
		t.Fatalf("GetRows(missing) = %v, %v", none, err)
	}
}

func TestSnapshotIsolationFromAppends(t *testing.T) {
	tbl := newTable(t, 2)
	if err := tbl.Append([]sqltypes.Row{mkRow(1, "a", 1), mkRow(2, "b", 2)}); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	v1 := snap.Version()
	if err := tbl.Append([]sqltypes.Row{mkRow(1, "a2", 10), mkRow(3, "c", 3)}); err != nil {
		t.Fatal(err)
	}
	// The snapshot sees exactly the old state.
	got, err := snap.GetRows(sqltypes.NewInt64(1))
	if err != nil || len(got) != 1 || got[0][1].StringVal() != "a" {
		t.Fatalf("snapshot GetRows(1) = %v, %v", got, err)
	}
	if rows, _ := snap.GetRows(sqltypes.NewInt64(3)); len(rows) != 0 {
		t.Fatal("snapshot sees key appended after it")
	}
	n, err := snap.RowCount()
	if err != nil || n != 2 {
		t.Fatalf("snapshot RowCount = %d, %v", n, err)
	}
	// A fresh snapshot sees everything.
	snap2 := tbl.Snapshot()
	if snap2.Version() <= v1 {
		t.Fatal("version did not advance")
	}
	got2, _ := snap2.GetRows(sqltypes.NewInt64(1))
	if len(got2) != 2 || got2[0][1].StringVal() != "a2" {
		t.Fatalf("fresh snapshot GetRows(1) = %v", got2)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	if err := snap2.Validate(); err != nil {
		t.Fatalf("snapshot2 invalid: %v", err)
	}
}

func TestFineGrainedAppendFastPath(t *testing.T) {
	tbl := newTable(t, 4)
	for i := int64(0); i < 50; i++ {
		if err := tbl.Append([]sqltypes.Row{mkRow(i, "x", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.RowCount() != 50 || tbl.Version() != 50 {
		t.Fatalf("RowCount=%d Version=%d", tbl.RowCount(), tbl.Version())
	}
}

func TestAppendEmptyAndBadArity(t *testing.T) {
	tbl := newTable(t, 2)
	if err := tbl.Append(nil); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() != 0 {
		t.Fatal("empty append bumped version")
	}
	err := tbl.Append([]sqltypes.Row{{sqltypes.NewInt64(1)}, {sqltypes.NewInt64(2)}})
	if err == nil {
		t.Fatal("bad arity accepted")
	}
}

func TestScanPartitionSeesSnapshotOnly(t *testing.T) {
	tbl := newTable(t, 1)
	for i := int64(0); i < 20; i++ {
		if err := tbl.Append([]sqltypes.Row{mkRow(i, "a", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := tbl.Snapshot()
	for i := int64(20); i < 40; i++ {
		if err := tbl.Append([]sqltypes.Row{mkRow(i, "b", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := snap.ScanPartition(0, func(row sqltypes.Row) bool {
		if row[1].StringVal() != "a" {
			t.Error("scan leaked a post-snapshot row")
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("scan saw %d rows", n)
	}
}

func TestScanPartitionColumns(t *testing.T) {
	tbl := newTable(t, 1)
	if err := tbl.Append([]sqltypes.Row{mkRow(1, "x", 2.5), mkRow(2, "y", 3.5)}); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	var names []string
	var scores []float64
	err := snap.ScanPartitionColumns(0, []int{1, 2}, func(row sqltypes.Row) bool {
		names = append(names, row[0].StringVal())
		scores = append(scores, row[1].Float64Val())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "x" || scores[1] != 3.5 {
		t.Fatalf("projected scan: %v %v", names, scores)
	}
}

func TestDelete(t *testing.T) {
	tbl := newTable(t, 2)
	if err := tbl.Append([]sqltypes.Row{mkRow(1, "a", 0), mkRow(1, "b", 0), mkRow(2, "c", 0)}); err != nil {
		t.Fatal(err)
	}
	if !tbl.Delete(sqltypes.NewInt64(1)) {
		t.Fatal("Delete(1) = false")
	}
	if tbl.Delete(sqltypes.NewInt64(99)) {
		t.Fatal("Delete(missing) = true")
	}
	snap := tbl.Snapshot()
	if rows, _ := snap.GetRows(sqltypes.NewInt64(1)); len(rows) != 0 {
		t.Fatal("deleted key still reachable")
	}
	if rows, _ := snap.GetRows(sqltypes.NewInt64(2)); len(rows) != 1 {
		t.Fatal("unrelated key disturbed by delete")
	}
	if tbl.DistinctKeys() != 1 {
		t.Fatalf("DistinctKeys after delete = %d", tbl.DistinctKeys())
	}
}

func TestMemoryUsageAccounting(t *testing.T) {
	tbl := newTable(t, 2)
	rows := make([]sqltypes.Row, 0, 1000)
	for i := int64(0); i < 1000; i++ {
		rows = append(rows, mkRow(i, "some-name-payload", float64(i)))
	}
	if err := tbl.Append(rows); err != nil {
		t.Fatal(err)
	}
	batchBytes, dataBytes, indexBytes := tbl.MemoryUsage()
	if batchBytes <= 0 || dataBytes <= 0 || indexBytes <= 0 {
		t.Fatalf("memory usage: %d %d %d", batchBytes, dataBytes, indexBytes)
	}
	if dataBytes > batchBytes {
		t.Fatal("data bytes exceed reserved bytes")
	}
}

func TestLookupEachEarlyStop(t *testing.T) {
	tbl := newTable(t, 1)
	for i := 0; i < 10; i++ {
		if err := tbl.Append([]sqltypes.Row{mkRow(7, fmt.Sprint(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := tbl.Snapshot()
	n := 0
	if err := snap.LookupEach(sqltypes.NewInt64(7), func(sqltypes.Row) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestConcurrentAppendersAndSnapshotReaders(t *testing.T) {
	tbl := newTable(t, 4)
	const writers = 4
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := int64(i % 50)
				row := mkRow(key, fmt.Sprintf("w%d-%d", w, i), float64(i))
				if err := tbl.Append([]sqltypes.Row{row}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	// Readers take snapshots and validate invariants while writers run.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				snap := tbl.Snapshot()
				if err := snap.Validate(); err != nil {
					t.Errorf("snapshot validation: %v", err)
					return
				}
				n1, err := snap.RowCount()
				if err != nil {
					t.Errorf("rowcount: %v", err)
					return
				}
				n2, _ := snap.RowCount()
				if n1 != n2 {
					t.Errorf("snapshot row count moved: %d -> %d", n1, n2)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tbl.RowCount() != writers*perWriter {
		t.Fatalf("RowCount = %d, want %d", tbl.RowCount(), writers*perWriter)
	}
	// Final consistency: chain lengths per key sum to total rows.
	snap := tbl.Snapshot()
	var total int
	for key := int64(0); key < 50; key++ {
		rows, err := snap.GetRows(sqltypes.NewInt64(key))
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
	}
	if total != writers*perWriter {
		t.Fatalf("sum of chains = %d, want %d", total, writers*perWriter)
	}
}

// TestQuickAppendLookup property: for any batch of (key, payload) pairs,
// GetRows(k) returns exactly the payloads appended with k, newest first.
func TestQuickAppendLookup(t *testing.T) {
	f := func(keys []uint8) bool {
		tbl, err := NewIndexedTable(testSchema(), 0, Options{NumPartitions: 3, BatchSize: 2048})
		if err != nil {
			return false
		}
		want := map[int64][]string{}
		var rows []sqltypes.Row
		for i, k := range keys {
			key := int64(k % 17)
			name := fmt.Sprintf("r%d", i)
			rows = append(rows, mkRow(key, name, 0))
			want[key] = append([]string{name}, want[key]...) // newest first
		}
		if err := tbl.Append(rows); err != nil {
			return false
		}
		snap := tbl.Snapshot()
		for key, names := range want {
			got, err := snap.GetRows(sqltypes.NewInt64(key))
			if err != nil || len(got) != len(names) {
				return false
			}
			for i, r := range got {
				if r[1].StringVal() != names[i] {
					return false
				}
			}
		}
		return snap.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestIndexBytesEstimate keeps MemoryUsage's per-key Ctrie estimate
// honest: it must be within 20% of the live heap a 200k-key BIGINT index
// actually holds after a GC.
func TestIndexBytesEstimate(t *testing.T) {
	const keys = 200_000
	hasher := func(v sqltypes.Value) uint64 { return mix64(v.Hash64()) }
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	idx := ctrie.New[sqltypes.Value, rowbatch.Ptr](hasher)
	for i := 0; i < keys; i++ {
		idx.Insert(sqltypes.NewInt64(int64(i)), rowbatch.Ptr(i+1))
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(idx)
	measured := float64(int64(ms.HeapAlloc)-int64(before)) / keys
	if lo, hi := 0.8*measured, 1.2*measured; indexBytesPerKey < lo || indexBytesPerKey > hi {
		t.Fatalf("indexBytesPerKey = %d, want within 20%% of measured %.1f B/key", indexBytesPerKey, measured)
	}
}
