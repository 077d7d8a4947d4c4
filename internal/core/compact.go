package core

import (
	"fmt"

	"indexeddf/internal/ctrie"
	"indexeddf/internal/rowbatch"
	"indexeddf/internal/sqltypes"
)

// Compact rebuilds every partition keeping only index-reachable rows,
// reclaiming space left behind by Delete (and by overwritten chains when
// onlyNewest is set, which keeps just the newest row per key — a
// "latest-version materialize" useful for slowly changing dimensions).
//
// This is our extension of the paper's append-only design (§2 notes
// multi-versioning; reclamation is left open). Compaction is MVCC-safe:
// snapshots taken before the compact hold references to the old Ctrie and
// row batches, which stay intact; the partition atomically switches to the
// rebuilt pair under its append lock, so new snapshots see the compacted
// state.
//
// It returns the number of rows dropped.
func (t *IndexedTable) Compact(onlyNewest bool) (dropped int64, err error) {
	for pi, part := range t.parts {
		d, err := t.compactPartition(pi, part, onlyNewest)
		if err != nil {
			return dropped, fmt.Errorf("core: compacting partition %d: %w", pi, err)
		}
		dropped += d
	}
	if dropped != 0 {
		t.version.Add(1)
	}
	return dropped, nil
}

func (t *IndexedTable) compactPartition(pi int, part *Partition, onlyNewest bool) (int64, error) {
	part.mu.Lock()
	defer part.mu.Unlock()

	oldIndex := part.index
	oldBatches := part.batches
	newBatches := rowbatch.NewSet(oldBatches.BatchSize())
	hasher := func(v sqltypes.Value) uint64 { return mix64(v.Hash64()) }
	newIndex := ctrie.New[sqltypes.Value, rowbatch.Ptr](hasher)

	var kept, keys int64
	var rebuildErr error
	// Walk keys; re-append each chain oldest-first so backward pointers
	// rebuild in append order.
	oldIndex.Iterate(func(key sqltypes.Value, head rowbatch.Ptr) bool {
		var payloads [][]byte
		err := oldBatches.Chain(head, func(_ rowbatch.Ptr, payload []byte) bool {
			payloads = append(payloads, payload) // newest first; aliases old batches
			return !onlyNewest                   // keep walking unless only the newest is wanted
		})
		if err != nil {
			rebuildErr = err
			return false
		}
		var prev rowbatch.Ptr
		for i := len(payloads) - 1; i >= 0; i-- {
			ptr, err := newBatches.Append(prev, payloads[i])
			if err != nil {
				rebuildErr = err
				return false
			}
			prev = ptr
			kept++
		}
		newIndex.Insert(key, prev)
		keys++
		return true
	})
	if rebuildErr != nil {
		return 0, rebuildErr // partition left untouched on failure
	}
	total := oldBatches.NumRows()
	part.index = newIndex
	part.batches = newBatches
	part.keys.Store(keys)
	part.deletes = 0 // rebuilt batches hold only index-reachable rows
	part.seq++
	part.snap = partSnapshot{} // free the old index and batches once no query pins them
	t.rows.Add(kept - total)
	if total != kept && t.capture.enabled.Load() {
		// Compaction rewrites content without producing change records
		// (onlyNewest drops overwritten chain rows outright), so any delta
		// cursor crossing this point would silently miss those drops.
		// Break the log: consumers detect the gap and fully recompute from
		// a post-compact snapshot.
		t.invalidateLogLocked(part)
	}
	return total - kept, nil
}
