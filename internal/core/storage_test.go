package core_test

import (
	"testing"

	"indexeddf/internal/core"
	"indexeddf/internal/snb"
)

// TestKnowsStorageRightSized: the sf 0.25 knows table indexed on
// person1Id (~113 KB of encoded rows over 4 partitions) reserves at most
// twice its data plus one 64 KiB first batch per partition, not a full
// 4 MB batch per partition (16 MiB).
func TestKnowsStorageRightSized(t *testing.T) {
	d := snb.Generate(snb.Config{ScaleFactor: 0.25, Seed: 42})
	tbl, err := core.NewIndexedTable(snb.KnowsSchema(), 0, core.Options{NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(d.Knows); err != nil {
		t.Fatal(err)
	}
	batchBytes, dataBytes, _ := tbl.MemoryUsage()
	if limit := 2*dataBytes + 4*(64<<10); batchBytes > limit {
		t.Fatalf("knows reserves %d B for %d B of rows, want <= %d", batchBytes, dataBytes, limit)
	}
	t.Logf("knows: %d rows, %d B data, %d B reserved", tbl.RowCount(), dataBytes, batchBytes)
}
