package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"indexeddf/internal/sqltypes"
)

// filledTable returns a 4-partition table holding keys 0..keys-1, one row
// each.
func filledTable(t testing.TB, keys int) *IndexedTable {
	t.Helper()
	tbl, err := NewIndexedTable(testSchema(), 0, Options{NumPartitions: 4, BatchSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, keys)
	for i := range rows {
		rows[i] = mkRow(int64(i), fmt.Sprintf("n%d", i), float64(i))
	}
	if err := tbl.Append(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// names returns the name column of key's rows in s, newest first.
func names(t *testing.T, s *Snapshot, key int64) []string {
	t.Helper()
	rows, err := s.GetRows(sqltypes.NewInt64(key))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[1].StringVal()
	}
	return out
}

func TestSnapshotReusesUnchangedPartitions(t *testing.T) {
	tbl := filledTable(t, 40)
	s1, s2 := tbl.Snapshot(), tbl.Snapshot()
	for p := range s1.parts {
		if s1.parts[p].index != s2.parts[p].index {
			t.Errorf("partition %d: unchanged table re-snapshotted its Ctrie", p)
		}
	}
}

func TestSnapshotAfterOneRowAppendRefreshesOnlyItsPartition(t *testing.T) {
	tbl := filledTable(t, 40)
	before := tbl.Snapshot()
	key := sqltypes.NewInt64(7)
	if err := tbl.Append([]sqltypes.Row{mkRow(7, "new", 0)}); err != nil {
		t.Fatal(err)
	}
	after := tbl.Snapshot()
	changed := tbl.PartitionFor(key)
	for p := range after.parts {
		same := before.parts[p].index == after.parts[p].index
		if p == changed && same {
			t.Errorf("partition %d took the append but kept its old snapshot", p)
		}
		if p != changed && !same {
			t.Errorf("partition %d is unchanged but was re-snapshotted", p)
		}
	}
	if got := names(t, after, 7); !slices.Equal(got, []string{"new", "n7"}) {
		t.Fatalf("after append: key 7 rows %v", got)
	}
	if got := names(t, before, 7); !slices.Equal(got, []string{"n7"}) {
		t.Fatalf("before append: key 7 rows %v", got)
	}
}

// TestSnapshotAfterEveryMutationKind checks that each kind of change a
// partition can undergo is visible to the next snapshot, with the right
// change mark, even though unchanged partitions reuse their frozen views.
func TestSnapshotAfterEveryMutationKind(t *testing.T) {
	const key = 7
	cases := []struct {
		name   string
		mutate func(t *testing.T, tbl *IndexedTable)
		rows   []string // key's rows in the next snapshot, newest first
		mark   int64    // key partition's change mark in the next snapshot
	}{
		{
			name: "delete",
			mutate: func(t *testing.T, tbl *IndexedTable) {
				if !tbl.Delete(sqltypes.NewInt64(key)) {
					t.Fatal("key not deleted")
				}
			},
			rows: nil, mark: -1,
		},
		{
			name: "compact",
			mutate: func(t *testing.T, tbl *IndexedTable) {
				if err := tbl.Append([]sqltypes.Row{mkRow(key, "v2", 0)}); err != nil {
					t.Fatal(err)
				}
				tbl.Snapshot() // cache the two-row view
				if _, err := tbl.Compact(true); err != nil {
					t.Fatal(err)
				}
			},
			rows: []string{"v2"}, mark: -1,
		},
		{
			name:   "enable capture",
			mutate: func(t *testing.T, tbl *IndexedTable) { tbl.EnableChangeCapture() },
			rows:   []string{"n7"}, mark: 0,
		},
		{
			name: "enable capture and append",
			mutate: func(t *testing.T, tbl *IndexedTable) {
				tbl.EnableChangeCapture()
				if err := tbl.Append([]sqltypes.Row{mkRow(key, "v2", 0)}); err != nil {
					t.Fatal(err)
				}
			},
			rows: []string{"v2", "n7"}, mark: 1,
		},
		{
			name: "disable capture",
			mutate: func(t *testing.T, tbl *IndexedTable) {
				tbl.EnableChangeCapture()
				if err := tbl.Append([]sqltypes.Row{mkRow(key, "v2", 0)}); err != nil {
					t.Fatal(err)
				}
				tbl.Snapshot() // cache the captured view
				tbl.DisableChangeCapture()
			},
			rows: []string{"v2", "n7"}, mark: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := filledTable(t, 40)
			p := tbl.PartitionFor(sqltypes.NewInt64(key))
			old := tbl.Snapshot()
			tc.mutate(t, tbl)
			s := tbl.Snapshot()
			if got := names(t, s, key); !slices.Equal(got, tc.rows) {
				t.Errorf("key %d rows %v, want %v", key, got, tc.rows)
			}
			if got := s.ChangeMark(p); got != tc.mark {
				t.Errorf("ChangeMark(%d) = %d, want %d", p, got, tc.mark)
			}
			if got := names(t, old, key); !slices.Equal(got, []string{"n7"}) {
				t.Errorf("snapshot from before the change: key %d rows %v", key, got)
			}
			if err := s.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSnapshotKeepsOldRowsAfterAppends(t *testing.T) {
	tbl := filledTable(t, 40)
	old := tbl.Snapshot()
	for i := 0; i < 200; i++ {
		if err := tbl.Append([]sqltypes.Row{mkRow(int64(i%40), fmt.Sprintf("late%d", i), 0)}); err != nil {
			t.Fatal(err)
		}
		tbl.Snapshot() // refresh the cache between appends
	}
	n, err := old.RowCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("old snapshot sees %d rows, want 40", n)
	}
	for k := int64(0); k < 40; k++ {
		if got := names(t, old, k); !slices.Equal(got, []string{fmt.Sprintf("n%d", k)}) {
			t.Fatalf("old snapshot: key %d rows %v", k, got)
		}
	}
	if n, _ := tbl.Snapshot().RowCount(); n != 240 {
		t.Fatalf("new snapshot sees %d rows, want 240", n)
	}
}

// TestSnapshotReuseUnderConcurrentAppends races appenders against
// snapshotters (run it with -race). Every snapshot, reused or fresh, must
// return through LookupEach exactly the rows its watermarks bound: per key,
// the chain from the frozen index is the reverse of the key's rows in the
// partition's append-order scan.
func TestSnapshotReuseUnderConcurrentAppends(t *testing.T) {
	tbl, err := NewIndexedTable(testSchema(), 0, Options{NumPartitions: 4, BatchSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers   = 3
		perWriter = 300
		keys      = 16
		readers   = 2
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				row := mkRow(int64(i%keys), fmt.Sprintf("w%d-%d", w, i), 0)
				if err := tbl.Append([]sqltypes.Row{row}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(0)
			for i := 0; i < 60; i++ {
				s := tbl.Snapshot()
				n, err := checkSnapshotChains(s, keys)
				if err != nil {
					t.Error(err)
					return
				}
				if n < last {
					t.Errorf("snapshot %d sees %d rows, an earlier one saw %d", i, n, last)
					return
				}
				last = n
			}
		}()
	}
	wg.Wait()
	n, err := checkSnapshotChains(tbl.Snapshot(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Fatalf("final snapshot sees %d rows, want %d", n, writers*perWriter)
	}
}

// checkSnapshotChains compares, for every key, the LookupEach chain with
// the partition scan below the watermarks, and returns the row count.
func checkSnapshotChains(s *Snapshot, keys int) (int64, error) {
	scanned := make(map[int64][]string)
	var total int64
	for p := 0; p < s.NumPartitions(); p++ {
		if err := s.ScanPartition(p, func(r sqltypes.Row) bool {
			k := r[0].Int64Val()
			scanned[k] = append(scanned[k], r[1].StringVal())
			total++
			return true
		}); err != nil {
			return 0, err
		}
	}
	for k := int64(0); k < int64(keys); k++ {
		var chain []string
		if err := s.LookupEach(sqltypes.NewInt64(k), func(r sqltypes.Row) bool {
			chain = append(chain, r[1].StringVal())
			return true
		}); err != nil {
			return 0, err
		}
		slices.Reverse(chain)
		if !slices.Equal(chain, scanned[k]) {
			return 0, fmt.Errorf("key %d: index chain %v, watermark scan %v", k, chain, scanned[k])
		}
	}
	return total, nil
}

// TestSnapshotReuseAllocs pins the cost of snapshotting an unchanged
// table: the Snapshot and its partition slice, nothing per partition.
func TestSnapshotReuseAllocs(t *testing.T) {
	tbl := filledTable(t, 100)
	tbl.Snapshot()
	allocs := testing.AllocsPerRun(100, func() { tbl.Snapshot() })
	if allocs > 2 {
		t.Fatalf("Snapshot of an unchanged 4-partition table allocates %.0f times, want <= 2", allocs)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	b.Run("unchanged", func(b *testing.B) {
		tbl := filledTable(b, 1000)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tbl.Snapshot()
		}
	})
	b.Run("after-append", func(b *testing.B) {
		tbl := filledTable(b, 1000)
		row := []sqltypes.Row{mkRow(7, "x", 0)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if i%4096 == 4095 {
				// Keep the partition small however large b.N grows.
				if _, err := tbl.Compact(true); err != nil {
					b.Fatal(err)
				}
			}
			if err := tbl.Append(row); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			tbl.Snapshot()
		}
	})
}
