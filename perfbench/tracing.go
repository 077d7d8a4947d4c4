package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indexeddf"
)

// maxSpans bounds the spans a traced run keeps in memory for the trace
// file; later spans are counted but not kept, so the file stays loadable.
const maxSpans = 60000

// Span tracks (Chrome trace "tid"): one per benchmark role, then one per
// partition for engine tasks so parallel tasks do not overlap on a track.
const (
	trackClient   = 1
	trackAppender = 2
	trackQuery    = 3
	trackTask     = 100
	trackShuffle  = 200
)

// span is one recorded interval: name, start, end, the span that caused
// it, and the engine query it belongs to.
type span struct {
	name   string
	cat    string
	start  time.Time
	end    time.Time
	id     int64
	parent int64
	query  string
	track  int
}

// tracer is the traced run's recorder. The benchmark opens spans around
// its calls into each layer; the engine's per-query stats and lifecycle
// events arrive through Config.SlowQueryLog (threshold 1ns), which the
// engine calls on the querying goroutine when a cursor closes.
type tracer struct {
	sess   *indexeddf.Session
	origin time.Time
	on     atomic.Bool  // aggregate only inside measured windows
	client atomic.Int64 // span id of the client call now issuing queries
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	q       queryAgg
}

// queryAgg accumulates the engine's per-query counters (obs.QueryStats)
// and lifecycle spans (Session.TraceEventsFor).
type queryAgg struct {
	queries      int64
	parseUs      samples
	planUs       samples
	firstRowUs   samples
	drainUs      samples
	taskMs       samples
	shufWriteMs  samples
	shufFetchMs  samples
	tasks        int64
	shuffleBytes int64
	memPeak      int64
	spillBytes   int64
	spillRuns    int64
	rowsReturned int64
	rowsExamined int64
	opWallNs     map[string]int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), q: queryAgg{opWallNs: map[string]int64{}}}
}

// config returns the engine settings that turn the per-query hook on.
func (t *tracer) config(cfg indexeddf.Config) indexeddf.Config {
	cfg.SlowQueryThreshold = time.Nanosecond
	cfg.SlowQueryLog = t.onQuery
	return cfg
}

// reset drops what was recorded so far (spans and query aggregates).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dropped = nil, 0
	t.q = queryAgg{opWallNs: map[string]int64{}}
	t.mu.Unlock()
}

func (t *tracer) id() int64 { return t.nextID.Add(1) }

// begin opens a client span and marks it as the parent of the engine
// queries it issues; end records it.
func (t *tracer) begin() (int64, time.Time) {
	id := t.id()
	t.client.Store(id)
	return id, time.Now()
}

func (t *tracer) end(id int64, name, cat string, track int, start time.Time) {
	if !t.on.Load() {
		return
	}
	s := span{name: name, cat: cat, start: start, end: time.Now(), id: id, track: track}
	t.mu.Lock()
	t.addLocked(s)
	t.mu.Unlock()
}

func (t *tracer) addLocked(s span) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// onQuery is the Config.SlowQueryLog hook.
func (t *tracer) onQuery(sq indexeddf.SlowQuery) {
	if !t.on.Load() || sq.Stats == nil || t.sess == nil {
		return
	}
	qs := sq.Stats
	events := t.sess.TraceEventsFor(qs.ID)
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &t.q
	a.queries++
	a.parseUs.add(float64(qs.ParseNs) / 1e3)
	a.planUs.add(float64(qs.PlanNs) / 1e3)
	a.tasks += qs.TasksStarted()
	a.shuffleBytes += qs.ShuffleBytes()
	if p := qs.MemPeak(); p > a.memPeak {
		a.memPeak = p
	}
	a.spillBytes += qs.SpillBytes()
	a.spillRuns += qs.SpillRuns()
	a.rowsReturned += qs.RowsReturned()
	for _, op := range qs.Ops() {
		a.opWallNs[op.Label] += op.WallNs()
		if strings.Contains(op.Label, "Scan") || strings.Contains(op.Label, "Lookup") {
			a.rowsExamined += op.RowsOut()
		}
	}

	qid := t.id()
	qStart := qs.Start
	t.addLocked(span{name: "query", cat: "engine", start: qStart, end: qStart.Add(sq.Duration),
		id: qid, parent: t.client.Load(), query: qs.ID, track: trackQuery})
	var firstRow time.Duration
	taskEnd := map[int]time.Time{}
	for _, ev := range events {
		if ev.Name == "task" {
			taskEnd[ev.Part] = ev.At
		}
	}
	for _, ev := range events {
		s := span{name: ev.Name, cat: "engine", start: ev.At.Add(-ev.Dur), end: ev.At,
			id: t.id(), parent: qid, query: qs.ID, track: trackQuery}
		switch ev.Name {
		case "task":
			a.taskMs.addDur(ev.Dur, time.Millisecond)
			s.track = trackTask + ev.Part
		case "shuffle write":
			a.shufWriteMs.addDur(ev.Dur, time.Millisecond)
			s.track = trackShuffle + ev.Part
		case "shuffle fetch":
			// The fetch is an instant event at the start of a reduce
			// task's read; its span runs to the end of that task.
			if end, ok := taskEnd[ev.Part]; ok && end.After(ev.At) {
				s.end = end
				a.shufFetchMs.addDur(end.Sub(ev.At), time.Millisecond)
			}
			s.track = trackTask + ev.Part
		case "first row":
			firstRow = ev.Dur
			a.firstRowUs.addDur(ev.Dur, time.Microsecond)
		case "close":
			if firstRow > 0 {
				a.drainUs.addDur(ev.Dur-firstRow, time.Microsecond)
			}
		}
		t.addLocked(s)
	}
}

// writeChromeTrace writes the kept spans as Chrome trace-event JSON,
// which Perfetto and chrome://tracing open.
func (t *tracer) writeChromeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := map[string]any{
			"name": s.name, "cat": s.cat, "ph": "X", "pid": 1, "tid": s.track,
			"ts":   float64(s.start.Sub(t.origin).Nanoseconds()) / 1e3,
			"dur":  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			"args": map[string]any{"id": s.id, "parent": s.parent, "query": s.query},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is a point-in-time read of the Go runtime's counters.
type runtimeSample struct {
	allocBytes uint64
	pauses     *metrics.Float64Histogram
}

var runtimeMetricNames = []string{"/gc/heap/allocs:bytes", "/sched/pauses/total/gc:seconds"}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64Histogram {
		s.pauses = ms[1].Value.Float64Histogram()
	}
	return s
}

// gcPauseQuantileMs returns the q-quantile of the GC stop-the-world pauses
// between two samples, as the upper edge of its histogram bucket.
func gcPauseQuantileMs(before, after runtimeSample, q float64) float64 {
	if before.pauses == nil || after.pauses == nil {
		return 0
	}
	counts := make([]uint64, len(after.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.pauses.Counts[i]
		if i < len(before.pauses.Counts) {
			counts[i] -= before.pauses.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(q*float64(total) + 0.5)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= need && c > 0 {
			edge := after.pauses.Buckets[i+1]
			if edge > 1e9 { // +Inf bucket: report its lower edge
				edge = after.pauses.Buckets[i]
			}
			return edge * 1e3
		}
	}
	return 0
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	if ms[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(ms[0].Value.Uint64()) / (1 << 20)
}
