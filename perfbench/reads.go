package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"indexeddf"
	"indexeddf/internal/core"
	"indexeddf/internal/snb"
	"indexeddf/internal/sqltypes"
)

// Read-workload shape: SQ1–SQ7 (snb.Queries) with 64 parameters per kind
// (snb.DefaultParams), and the appender's rate and batch size.
const (
	paramsPerKind = 64
	appendRate    = 2000 // events/s
	appendBatch   = 20   // events per batch
	checkSample   = 64   // SQ calls compared against the vanilla graph
	// probeEvery is how many reads pass between core-layer probes in a
	// traced run.
	probeEvery = 8
	// backlogLimit marks a reads-under-appends run invalid: at the end the
	// appender is this many batches (0.5 s of events) behind schedule.
	backlogLimit = 50
)

// readOp is one SQ call: query kind (index into snb.Queries) and parameter.
type readOp struct {
	kind int
	id   int64
}

// readMix draws the seeded uniform mix of SQ kinds and parameters.
type readMix struct {
	rng    *rand.Rand
	qs     []snb.Query
	params map[string][]int64
}

func newReadMix(seed int64, d *snb.Dataset) *readMix {
	return &readMix{rng: rand.New(rand.NewSource(seed)), qs: snb.Queries(),
		params: snb.DefaultParams(d, paramsPerKind)}
}

func (m *readMix) next() readOp {
	k := m.rng.Intn(len(m.qs))
	ids := m.params[m.qs[k].ParamKind]
	return readOp{kind: k, id: ids[m.rng.Intn(len(ids))]}
}

// readStats is the reader's record of one measured window.
type readStats struct {
	lat     samples   // ms per SQ call, in issue order
	perKind []samples // ms per SQ call by kind
	failures
	wall time.Duration

	// core-layer probes (traced runs)
	snapshotUs, probeUs, chainUs samples
	probeRows                    int64
}

func newReadStats() *readStats {
	return &readStats{perKind: make([]samples, len(snb.Queries()))}
}

// runReader is the closed-loop dashboard client: it issues the next SQ call
// as soon as the previous one returns, until stop is closed.
func runReader(g *snb.Graph, mix *readMix, stop <-chan struct{}, tr *tracer) *readStats {
	st := newReadStats()
	qs := mix.qs
	t0 := time.Now()
	for n := 0; ; n++ {
		select {
		case <-stop:
			st.wall = time.Since(t0)
			return st
		default:
		}
		op := mix.next()
		var id int64
		var start time.Time
		if tr != nil {
			if n%probeEvery == 0 {
				probeCore(g, op, qs[op.kind].ParamKind, st)
			}
			id, start = tr.begin()
		}
		t := time.Now()
		_, err := qs[op.kind].Run(g, op.id)
		ms := float64(time.Since(t)) / float64(time.Millisecond)
		if tr != nil {
			tr.end(id, qs[op.kind].Name, "snb", trackClient, start)
		}
		if err != nil {
			st.fail(fmt.Errorf("%s(%d): %w", qs[op.kind].Name, op.id, err))
			continue
		}
		st.lat.add(ms)
		st.perKind[op.kind].add(ms)
	}
}

// probeCore times the storage-layer calls behind one SQ parameter directly
// against the indexed copies' core tables: Snapshot, the Ctrie probe
// (LookupPtr) and the backward-chain walk (ChainEach).
func probeCore(g *snb.Graph, op readOp, paramKind string, st *readStats) {
	var tables []*core.IndexedTable
	switch {
	case paramKind == "person":
		tables = []*core.IndexedTable{g.PersonByID.IndexedCore(), g.KnowsByP1.IndexedCore()}
	case op.id >= snb.CommentIDBase:
		tables = []*core.IndexedTable{g.CommentByID.IndexedCore()}
	default:
		tables = []*core.IndexedTable{g.PostByID.IndexedCore()}
	}
	for _, t := range tables {
		probeTable(t, op.id, st)
	}
}

// probeTable times one key's Snapshot, LookupPtr and ChainEach on t.
func probeTable(t *core.IndexedTable, id int64, st *readStats) {
	key := sqltypes.NewInt64(id)
	t0 := time.Now()
	snap := t.Snapshot()
	t1 := time.Now()
	p := snap.PartitionFor(key)
	ptr, ok := snap.LookupPtr(p, key)
	t2 := time.Now()
	st.snapshotUs.addDur(t1.Sub(t0), time.Microsecond)
	st.probeUs.addDur(t2.Sub(t1), time.Microsecond)
	if !ok {
		return
	}
	var rows int64
	_ = snap.ChainEach(p, ptr, func(sqltypes.Row) bool { rows++; return true })
	st.chainUs.addDur(time.Since(t2), time.Microsecond)
	st.probeRows += rows
}

// appendStats is the appender's record of one measured window.
type appendStats struct {
	applied    int     // batches applied, in stream order
	latMs      samples // per batch, from due time to applied
	visibleMs  samples // per batch, from due time to the newest key found
	lateMs     samples // per batch, how late the generator started it
	callUs     samples // per AppendRowsSlice call (traced runs)
	backlogMid int     // batches due but not started, halfway through
	backlogEnd int     // ... and at the end
	failures
}

// appendTargets are the indexed copies each update kind goes to.
func appendTargets(g *snb.Graph) map[snb.UpdateKind][]*indexeddf.DataFrame {
	return map[snb.UpdateKind][]*indexeddf.DataFrame{
		snb.AddKnows:   {g.KnowsByP1},
		snb.AddPost:    {g.PostByID, g.PostByCreator},
		snb.AddComment: {g.CommentByID, g.CommentByCreator, g.CommentByReplyP, g.CommentByReplyC},
	}
}

// applyIndexed appends one update batch to the indexed copies through
// DataFrame.AppendRowsSlice (on an indexed frame: one
// core.IndexedTable.Append per call), timing each call when callUs is set.
func applyIndexed(targets map[snb.UpdateKind][]*indexeddf.DataFrame, batch []snb.Update, callUs *samples) error {
	byKind := map[snb.UpdateKind][]sqltypes.Row{}
	for _, u := range batch {
		byKind[u.Kind] = append(byKind[u.Kind], u.Row)
	}
	for _, kind := range []snb.UpdateKind{snb.AddKnows, snb.AddPost, snb.AddComment} {
		rows := byKind[kind]
		if len(rows) == 0 {
			continue
		}
		for _, df := range targets[kind] {
			t0 := time.Now()
			if _, err := df.AppendRowsSlice(rows); err != nil {
				return err
			}
			if callUs != nil {
				callUs.addDur(time.Since(t0), time.Microsecond)
			}
		}
	}
	return nil
}

// visible reports whether the newest event of a batch can be read back by
// key from a fresh snapshot of its indexed copy.
func visible(g *snb.Graph, u snb.Update) (bool, error) {
	var t *core.IndexedTable
	var key sqltypes.Value
	switch u.Kind {
	case snb.AddKnows:
		t, key = g.KnowsByP1.IndexedCore(), u.Row[0]
	case snb.AddPost:
		t, key = g.PostByID.IndexedCore(), u.Row[0]
	default:
		t, key = g.CommentByID.IndexedCore(), u.Row[0]
	}
	want := rowString(u.Row)
	found := false
	err := t.Snapshot().LookupEach(key, func(r sqltypes.Row) bool {
		found = rowString(r) == want // the chain is newest first
		return false
	})
	return found, err
}

// runAppender is the open-loop writer: batch i is due at start+i*period
// whatever the engine's progress, and its latency counts from that due
// time, so a stall also charges the batches queued behind it.
func runAppender(g *snb.Graph, batches [][]snb.Update, start time.Time, stop <-chan struct{}, tr *tracer) *appendStats {
	st := &appendStats{}
	period := time.Second * appendBatch / appendRate
	targets := appendTargets(g)
	var callUs *samples
	if tr != nil {
		callUs = &st.callUs
	}
	for i, batch := range batches {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-stop:
				timer.Stop()
				return st
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				st.backlogEnd = int(time.Since(start)/period) - i
				return st
			default:
			}
		}
		began := time.Now()
		if i == len(batches)/2 {
			st.backlogMid = int(began.Sub(start)/period) - i
		}
		st.lateMs.addDur(began.Sub(due), time.Millisecond)
		var id int64
		if tr != nil {
			id = tr.id()
		}
		if err := applyIndexed(targets, batch, callUs); err != nil {
			st.fail(fmt.Errorf("append batch %d: %w", i, err))
			continue
		}
		st.applied = i + 1
		st.latMs.addDur(time.Since(due), time.Millisecond)
		ok, err := visible(g, batch[len(batch)-1])
		switch {
		case err != nil:
			st.fail(fmt.Errorf("lookup after batch %d: %w", i, err))
		case !ok:
			st.fail(fmt.Errorf("batch %d: newest key not visible after its append", i))
		default:
			st.visibleMs.addDur(time.Since(due), time.Millisecond)
		}
		if tr != nil {
			tr.end(id, "append batch", "core", trackAppender, began)
		}
	}
	return st
}

// readWindow runs the reader (and, with batches, the appender) for d and
// returns their records. Both goroutines have exited when it returns.
func readWindow(g *snb.Graph, mix *readMix, batches [][]snb.Update, d time.Duration, tr *tracer) (*readStats, *appendStats) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rs *readStats
	var as *appendStats
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rs = runReader(g, mix, stop, tr)
	}()
	if batches != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			as = runAppender(g, batches, start, stop, tr)
		}()
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	return rs, as
}

// makeBatches pre-generates the seeded update stream for a window of d at
// the appender's rate (plus extra batches), so generating events never
// runs inside the timed region.
func makeBatches(d *snb.Dataset, seed int64, window time.Duration, extra int) [][]snb.Update {
	n := int(window.Seconds()*appendRate/appendBatch) + 1 + extra
	us := snb.NewUpdateStream(d, seed)
	out := make([][]snb.Update, n)
	for i := range out {
		out[i] = us.Batch(appendBatch)
	}
	return out
}

// checkReads replays the applied update prefix into a vanilla (non-indexed)
// graph of the same dataset and compares a seeded sample of SQ results
// between it and the indexed graph, including parameters the appender
// created. It returns the number of calls compared and the mismatches.
func checkReads(d *snb.Dataset, g *snb.Graph, applied [][]snb.Update, seed int64) (int64, []error) {
	vs := indexeddf.NewSession(indexeddf.Config{})
	defer vs.Close()
	vg, err := snb.Load(vs, d, false)
	if err != nil {
		return 1, []error{fmt.Errorf("load vanilla graph: %w", err)}
	}
	for i, b := range applied {
		if err := snb.Apply(vg, b); err != nil {
			return 1, []error{fmt.Errorf("replay batch %d: %w", i, err)}
		}
	}
	ops := checkOps(d, applied, seed)
	qs := snb.Queries()
	var errs []error
	for _, op := range ops {
		q := qs[op.kind]
		want, err := q.Run(vg, op.id)
		if err != nil {
			errs = append(errs, fmt.Errorf("vanilla %s(%d): %w", q.Name, op.id, err))
			continue
		}
		got, err := q.Run(g, op.id)
		if err != nil {
			errs = append(errs, fmt.Errorf("indexed %s(%d): %w", q.Name, op.id, err))
			continue
		}
		if err := diffRows(want, got); err != nil {
			errs = append(errs, fmt.Errorf("%s(%d): %w", q.Name, op.id, err))
		}
	}
	return int64(len(ops)), errs
}

// checkOps draws the checked SQ calls: a seeded sample of the read mix,
// plus every kind on keys the applied updates created or changed.
func checkOps(d *snb.Dataset, applied [][]snb.Update, seed int64) []readOp {
	mix := newReadMix(seed^0x5eed, d)
	var ops []readOp
	for i := 0; i < checkSample; i++ {
		ops = append(ops, mix.next())
	}
	var persons, messages []int64
	for _, b := range applied {
		for _, u := range b {
			switch u.Kind {
			case snb.AddKnows:
				persons = append(persons, u.Row[0].Int64Val())
			default:
				messages = append(messages, u.Row[0].Int64Val())
			}
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0xa99e))
	for k, q := range mix.qs {
		ids := messages
		if q.ParamKind == "person" {
			ids = persons
		}
		for i := 0; i < 4 && len(ids) > 0; i++ {
			ops = append(ops, readOp{kind: k, id: ids[rng.Intn(len(ids))]})
		}
	}
	return ops
}
