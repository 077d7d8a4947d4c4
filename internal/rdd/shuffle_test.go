package rdd

import (
	"sort"
	"sync"
	"testing"

	"indexeddf/internal/sqltypes"
	"indexeddf/internal/testutil"
	"indexeddf/internal/vector"
)

func kvSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Field{Name: "k", Type: sqltypes.Int64, Nullable: true},
		sqltypes.Field{Name: "v", Type: sqltypes.Int64},
	)
}

// TestBatchShuffleRoundTrip: the columnar exchange delivers every row
// exactly once, in the reduce partition its key's value hash selects —
// the index's partitioning — including NULL keys.
func TestBatchShuffleRoundTrip(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := NewContext(WithParallelism(4))
	rows := make([]sqltypes.Row, 10_000)
	for i := range rows {
		k := sqltypes.NewInt64(int64(i % 257))
		if i%41 == 0 {
			k = sqltypes.Null
		}
		rows[i] = sqltypes.Row{k, sqltypes.NewInt64(int64(i))}
	}
	const nReduce = 5
	want := make([][]string, nReduce)
	for _, r := range rows {
		p := r[0].Hash64() % nReduce
		want[p] = append(want[p], r.String())
	}
	parent := c.Parallelize(rows, 8)
	batch := c.NewBatchShuffledRDD(parent, kvSchema(), []int{0}, nReduce)
	bParts, err := c.RunJob(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(bParts) != nReduce {
		t.Fatalf("partition count %d, want %d", len(bParts), nReduce)
	}
	total := 0
	for p := 0; p < nReduce; p++ {
		got := make([]string, len(bParts[p]))
		for i, r := range bParts[p] {
			got[i] = r.String()
		}
		sort.Strings(got)
		sort.Strings(want[p])
		if len(got) != len(want[p]) {
			t.Fatalf("reduce partition %d: batch %d rows, want %d", p, len(got), len(want[p]))
		}
		for i := range got {
			if got[i] != want[p][i] {
				t.Fatalf("reduce partition %d row %d: batch %s, want %s", p, i, got[i], want[p][i])
			}
		}
		total += len(got)
	}
	if total != len(rows) {
		t.Fatalf("batch exchange delivered %d of %d rows", total, len(rows))
	}
}

// TestBatchShuffleSinglePartitionOrder: the gather exchange (no keys)
// preserves map-task order, so it returns the parent's rows in order.
func TestBatchShuffleSinglePartitionOrder(t *testing.T) {
	c := NewContext(WithParallelism(2))
	rows := make([]sqltypes.Row, 500)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt64(int64(i)), sqltypes.NewInt64(int64(i))}
	}
	parent := c.Parallelize(rows, 4)
	gathered, err := c.Collect(c.NewBatchShuffledRDD(parent, kvSchema(), nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(gathered) != len(rows) {
		t.Fatalf("gather returned %d rows, want %d", len(gathered), len(rows))
	}
	for i := range rows {
		if gathered[i].String() != rows[i].String() {
			t.Fatalf("gather row %d: %s, want %s", i, gathered[i], rows[i])
		}
	}
}

// TestConcurrentShuffleWriteAndFetch exercises the shuffle service's
// locking under -race: map tasks write batch buckets while reduce-side
// readers stream them out concurrently. Readers stop at the first
// unwritten map part, so they retry until a full drain observes every
// row; writers for other shuffles run at the same time to stress the
// manager-level map too.
func TestConcurrentShuffleWriteAndFetch(t *testing.T) {
	const (
		nMaps   = 32
		nReduce = 4
		perMap  = 100
	)
	m := NewShuffleManager()
	c := NewContext() // for TaskContext plumbing only
	mkBuckets := func(mapPart int) [][]*vector.Batch {
		sc := vector.NewScatter(kvSchema(), []int{0}, nReduce)
		b := vector.NewBatch(kvSchema())
		for i := 0; i < perMap; i++ {
			id := int64(mapPart*perMap + i)
			if err := b.AppendRow(sqltypes.Row{sqltypes.NewInt64(id % 13), sqltypes.NewInt64(id)}); err != nil {
				t.Error(err)
			}
		}
		sc.Add(b)
		return sc.Seal()
	}
	var wg sync.WaitGroup
	for shuffleID := 1; shuffleID <= 2; shuffleID++ {
		shuffleID := shuffleID
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mp := 0; mp < nMaps; mp++ {
				m.WriteBatches(shuffleID, mp, mkBuckets(mp))
			}
		}()
		for r := 0; r < nReduce; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				tc := &TaskContext{Ctx: c, Partition: r}
				for {
					reader, err := m.OpenBatchReader(shuffleID, r, tc)
					if err != nil {
						continue // stage map not created yet
					}
					n := 0
					for {
						b, err := reader.Next()
						if err != nil {
							t.Error(err)
							return
						}
						if b == nil {
							break
						}
						n += b.Len()
					}
					// A full drain sees every row hashed to this reducer
					// once all maps are written; partial drains (writer
					// still behind) retry.
					if full := fullReducerCount(r, nMaps, perMap, nReduce); n == full {
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

// fullReducerCount counts the rows the test writer hashes to reducer r.
func fullReducerCount(r, nMaps, perMap, nReduce int) int {
	n := 0
	for id := 0; id < nMaps*perMap; id++ {
		if int(sqltypes.NewInt64(int64(id%13)).Hash64()%uint64(nReduce)) == r {
			n++
		}
	}
	return n
}

// TestBatchShuffleFetchWithoutStageFails: the per-run readers refuse a
// shuffle whose map stage never ran, like OpenBatchReader.
func TestBatchShuffleFetchWithoutStageFails(t *testing.T) {
	m := NewShuffleManager()
	if _, err := m.OpenBatchReader(99, 0, nil); err == nil {
		t.Fatal("expected an error for a shuffle with no map outputs")
	}
	if _, err := m.OpenBatchRunReaders(99, 2, 0, nil); err == nil {
		t.Fatal("expected an error for a shuffle with no map outputs")
	}
}
