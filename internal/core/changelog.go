package core

import (
	"sync/atomic"

	"indexeddf/internal/rowbatch"
	"indexeddf/internal/sqltypes"
)

// Change capture: the hook incremental materialized views maintain
// themselves from. When capture is enabled, every partition keeps an
// ordered log of append/delete records tagged with the table version the
// mutation produced. Records are value-based (they store the affected rows,
// not row-batch pointers), so they survive everything except Compact, which
// rewrites content without producing records and therefore invalidates the
// log (consumers detect the break and fall back to full recompute).
//
// The log is per partition and is appended while holding the same partition
// lock that guards the physical mutation. A Snapshot records, under that
// same lock, the log sequence number alongside the row-batch watermarks —
// so a snapshot's visible content in partition p is EXACTLY the prefix of
// p's log up to the recorded mark. Delta consumers that fold log records up
// to a snapshot's marks and recompute from that same snapshot can never
// double-count or miss an in-flight mutation.

// ChangeKind classifies a change record.
type ChangeKind uint8

// Change kinds.
const (
	// ChangeAppend records rows added to the partition.
	ChangeAppend ChangeKind = iota
	// ChangeDelete records an index-key removal; Rows holds the rows that
	// became unreachable (the key's whole chain at removal time).
	ChangeDelete
)

func (k ChangeKind) String() string { return [...]string{"append", "delete"}[k] }

// Change is one change record.
type Change struct {
	// Version is the table version this mutation produced.
	Version int64
	Kind    ChangeKind
	// Rows are the appended rows (ChangeAppend) or the rows made
	// unreachable (ChangeDelete). They are private clones.
	Rows []sqltypes.Row
	// Key is the removed index key (ChangeDelete only).
	Key sqltypes.Value
}

// partLog is one partition's change log. All fields are guarded by the
// owning Partition's mutex.
type partLog struct {
	// floor is the absolute sequence number of entries[0]; records below it
	// have been pruned or invalidated.
	floor int64
	// entries are the retained records; record i has absolute sequence
	// floor+i. A record's sequence number orders it within the partition;
	// the sequence AFTER the last record (floor+len) is the partition's
	// change mark.
	entries []Change
}

func (l *partLog) mark() int64 { return l.floor + int64(len(l.entries)) }

// changeCapture is the table-level switch plus counters.
type changeCapture struct {
	enabled atomic.Bool
}

// EnableChangeCapture turns on change logging for all partitions. It is
// idempotent and cheap; tables without views never pay for capture.
// Consumers must enable capture BEFORE snapshotting for their initial
// build: records logged after the enable and before the snapshot are
// already reflected in the snapshot and are skipped via its change marks.
func (t *IndexedTable) EnableChangeCapture() { t.capture.enabled.Store(true) }

// ChangeCaptureEnabled reports whether mutations are being logged.
func (t *IndexedTable) ChangeCaptureEnabled() bool { return t.capture.enabled.Load() }

// DisableChangeCapture turns logging back off and discards every retained
// record (the catalog calls it when a table's last materialized view is
// dropped, so capture never costs memory without a consumer). Any
// consumer that somehow still holds a cursor observes a log gap and falls
// back to full recompute.
func (t *IndexedTable) DisableChangeCapture() {
	t.capture.enabled.Store(false)
	for _, part := range t.parts {
		part.mu.Lock()
		t.invalidateLogLocked(part)
		part.mu.Unlock()
	}
}

// logAppendLocked records appended rows for partition p. Caller holds the
// partition lock and has already applied the mutation. Returns with the
// global version bumped.
func (t *IndexedTable) logAppendLocked(part *Partition, rows []sqltypes.Row) {
	v := t.version.Add(1)
	clones := make([]sqltypes.Row, len(rows))
	for i, r := range rows {
		clones[i] = r.Clone()
	}
	part.log.entries = append(part.log.entries, Change{Version: v, Kind: ChangeAppend, Rows: clones})
}

// logDeleteLocked records a key removal for partition p (rows are the
// chain's rows, already cloned). Caller holds the partition lock.
func (t *IndexedTable) logDeleteLocked(part *Partition, key sqltypes.Value, rows []sqltypes.Row) {
	v := t.version.Add(1)
	part.log.entries = append(part.log.entries, Change{Version: v, Kind: ChangeDelete, Rows: rows, Key: key})
}

// invalidateLogLocked breaks partition p's log after an out-of-band content
// rewrite (Compact): the mark advances past a phantom record so every
// cursor taken before the rewrite reads as out of range, forcing consumers
// to full recompute. Caller holds the partition lock.
func (t *IndexedTable) invalidateLogLocked(part *Partition) {
	part.log.floor = part.log.mark() + 1
	part.log.entries = nil
	part.seq++
}

// ChangesBetween returns partition p's change records with sequence numbers
// in [from, to). ok is false when the log no longer reaches back to from
// (capture was off, records were pruned, or Compact invalidated the log) —
// the caller must rebuild from a snapshot instead of folding a delta.
func (t *IndexedTable) ChangesBetween(p int, from, to int64) (changes []Change, ok bool) {
	part := t.parts[p]
	part.mu.Lock()
	defer part.mu.Unlock()
	l := &part.log
	if from < l.floor || from > l.mark() || to > l.mark() {
		return nil, false
	}
	if to < from {
		return nil, false
	}
	if from == to {
		return nil, true
	}
	out := make([]Change, to-from)
	copy(out, l.entries[from-l.floor:to-l.floor])
	return out, true
}

// ChangeMark returns partition p's current change-log sequence mark.
func (t *IndexedTable) ChangeMark(p int) int64 {
	part := t.parts[p]
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.log.mark()
}

// PruneChanges discards partition p's records below seq (exclusive), once
// every consumer has folded past them; it keeps the log's memory bounded.
// Pruning never invalidates cursors at or above seq.
func (t *IndexedTable) PruneChanges(p int, seq int64) {
	part := t.parts[p]
	part.mu.Lock()
	defer part.mu.Unlock()
	l := &part.log
	if seq <= l.floor {
		return
	}
	if seq > l.mark() {
		seq = l.mark()
	}
	l.entries = l.entries[seq-l.floor:]
	l.floor = seq
}

// ChangeLogSize reports the total retained change records across
// partitions (observability and tests).
func (t *IndexedTable) ChangeLogSize() int64 {
	var n int64
	for _, part := range t.parts {
		part.mu.Lock()
		n += int64(len(part.log.entries))
		part.mu.Unlock()
	}
	return n
}

// collectChainLocked clones the rows currently reachable from key's chain
// in part. Caller holds the partition lock.
func (t *IndexedTable) collectChainLocked(part *Partition, key sqltypes.Value) ([]sqltypes.Row, error) {
	ptr, ok := part.index.Lookup(key)
	if !ok {
		return nil, nil
	}
	var rows []sqltypes.Row
	row := make(sqltypes.Row, t.schema.Len())
	var decodeErr error
	err := part.batches.Chain(ptr, func(_ rowbatch.Ptr, payload []byte) bool {
		if e := t.codec.DecodeInto(payload, row); e != nil {
			decodeErr = e
			return false
		}
		rows = append(rows, row.Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return rows, decodeErr
}
