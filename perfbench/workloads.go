package main

import (
	"fmt"
	"os"
	"time"

	"indexeddf"
	"indexeddf/internal/core"
	"indexeddf/internal/rowbatch"
	"indexeddf/internal/snb"
	"indexeddf/internal/sqltypes"
)

// Workload scale factors: sf 4 is 4k persons and 55k knows edges; sf 16 is
// 16k persons, 224k knows edges and 96k comments.
const (
	readsSF    = 4
	analyticSF = 16
	// soloBatches is the appender burst a traced run times alone, on a
	// throwaway copy, for runtime.alloc_bytes_per_event.
	soloBatches = 50
	// pairedSlices alternates untraced and traced read windows this many
	// times for trace.overhead_ratio.
	pairedSlices = 4
	pairedSlice  = 250 * time.Millisecond
	warmup       = 500 * time.Millisecond
)

// runReadWorkload runs short-reads, or reads-under-appends when appends.
func runReadWorkload(cfg runConfig, appends bool, o *outcome) error {
	sf := cfg.sf
	if sf == 0 {
		sf = readsSF
	}
	var tr *tracer
	engineCfg := indexeddf.Config{}
	if cfg.trace {
		tr = newTracer()
		engineCfg = tr.config(engineCfg)
	}
	e, times, err := setupRepeated(cfg.setups, func() (*env, error) {
		return setupReads(sf, cfg.seed, engineCfg)
	})
	if err != nil {
		return err
	}
	defer e.sess.Close()
	mix := newReadMix(cfg.seed, e.d)
	var batches [][]snb.Update
	if appends {
		batches = makeBatches(e.d, cfg.seed, cfg.duration, 0)
	}
	o.meta["scale_factor"] = sf
	o.meta["dataset_rows"] = e.d.Rows()
	o.meta["read_mix"] = fmt.Sprintf("uniform SQ1-SQ7, %d params per kind, 1 closed-loop reader", paramsPerKind)
	if appends {
		o.meta["append_rate_events_s"] = appendRate
		o.meta["append_batch_events"] = appendBatch
		o.meta["append_mix"] = "30% knows, 30% post, 40% comment (snb.UpdateStream)"
	}

	// Warm up outside the measured window: the first calls build lazily
	// initialised engine state.
	readWindow(e.g, newReadMix(cfg.seed^0x3a3a, e.d), nil, warmup, nil)

	var lay map[string]float64
	if tr != nil {
		tr.sess = e.sess
		lay, err = readsTracedExtras(cfg, sf, e, tr, appends)
		if err != nil {
			return err
		}
		tr.on.Store(true)
	}
	storeBefore := e.storage()
	rtBefore := readRuntime()
	rs, as := readWindow(e.g, mix, batches, cfg.duration, tr)
	rtAfter := readRuntime()
	if tr != nil {
		tr.on.Store(false)
	}
	heap := heapLiveMB()
	store := e.storage()

	// End-to-end metrics.
	o.put("op_ms", "ms", rs.lat.median(), len(rs.lat))
	o.put("read_p50_ms", "ms", rs.lat.median(), len(rs.lat))
	o.put("read_p99_ms", "ms", rs.lat.quantile(0.99), len(rs.lat))
	o.put("read_ops_s", "1/s", float64(len(rs.lat))/rs.wall.Seconds(), len(rs.lat))
	putSetup(o, e, times, store, heap)
	o.res.Attempted = int64(len(rs.lat)) + rs.failed
	o.res.Failed = rs.failed
	for _, s := range rs.errs {
		o.problem("read: %s", s)
	}

	var applied [][]snb.Update
	if as != nil {
		applied = batches[:as.applied]
		o.put("append_p50_ms", "ms", as.latMs.median(), len(as.latMs))
		o.put("append_p99_ms", "ms", as.latMs.quantile(0.99), len(as.latMs))
		o.put("visible_p99_ms", "ms", as.visibleMs.quantile(0.99), len(as.visibleMs))
		o.meta["appended_batches"] = as.applied
		o.meta["appender_late_p99_ms"] = as.lateMs.quantile(0.99)
		o.meta["appender_backlog_mid"] = as.backlogMid
		o.meta["appender_backlog_end"] = as.backlogEnd
		o.meta["valid"] = as.backlogEnd <= backlogLimit
		if as.backlogEnd > backlogLimit {
			o.problem("invalid run: appender ended %d batches behind schedule (limit %d)", as.backlogEnd, backlogLimit)
		}
		o.res.Attempted += int64(len(as.latMs)) + as.failed
		o.res.Failed += as.failed
		for _, s := range as.errs {
			o.problem("append: %s", s)
		}
	}

	// Correctness, outside the timed region.
	n, errs := checkReads(e.d, e.g, applied, cfg.seed)
	o.res.Attempted += n
	o.res.Failed += int64(len(errs))
	for _, err := range errs {
		o.problem("check: %v", err)
	}

	if tr == nil {
		return nil
	}
	for k, q := range snb.Queries() {
		lay["snb."+q.Name+".p50_ms"] = rs.perKind[k].median()
	}
	reads := float64(len(rs.lat) + int(rs.failed))
	queryLayers(lay, tr, reads)
	lay["core.probe_us"] = rs.probeUs.median()
	lay["core.chain_us"] = rs.chainUs.median()
	lay["core.snapshot_us"] = rs.snapshotUs.median()
	if len(rs.chainUs) > 0 {
		lay["core.rows_per_probe"] = float64(rs.probeRows) / float64(len(rs.chainUs))
	}
	lay["runtime.gc_pause_ms"] = gcPauseQuantileMs(rtBefore, rtAfter, 0.99)
	if as != nil {
		lay["core.append_p50_us"] = as.callUs.median()
		lay["core.append_p99_us"] = as.callUs.quantile(0.99)
		lay["core.batches_allocated"] = float64(store.batch-storeBefore.batch) / rowbatch.DefaultBatchSize
		lay["loadgen.late_p99_ms"] = as.lateMs.quantile(0.99)
		lay["loadgen.backlog_batches"] = float64(as.backlogEnd)
		lay["loadgen.append_p99_ms"] = as.latMs.quantile(0.99)
		lay["loadgen.visible_p99_ms"] = as.visibleMs.quantile(0.99)
	}
	lay["core.scan_rows_s"] = scanRate(e.g.KnowsByP1.IndexedCore())
	return finishTrace(cfg, o, tr, lay)
}

// readsTracedExtras measures, before the traced window, what a traced
// session cannot: an untraced twin of the graph runs alternating read
// windows with the traced one (trace.overhead_ratio) and gives the
// allocation per read and, with appends, per appended event.
func readsTracedExtras(cfg runConfig, sf float64, e *env, tr *tracer, appends bool) (map[string]float64, error) {
	lay := map[string]float64{}
	ue, err := setupReads(sf, cfg.seed, indexeddf.Config{})
	if err != nil {
		return nil, err
	}
	defer ue.sess.Close()
	readWindow(ue.g, newReadMix(cfg.seed^0x3a3a, ue.d), nil, warmup, nil)
	var untraced, traced samples
	var allocs uint64
	var reads int
	for i := 0; i < pairedSlices; i++ {
		mixSeed := cfg.seed ^ int64(0x77+i)
		before := readRuntime()
		rs, _ := readWindow(ue.g, newReadMix(mixSeed, ue.d), nil, pairedSlice, nil)
		allocs += readRuntime().allocBytes - before.allocBytes
		reads += len(rs.lat) + int(rs.failed)
		untraced = append(untraced, rs.lat...)
		tr.on.Store(true)
		rs, _ = readWindow(e.g, newReadMix(mixSeed, e.d), nil, pairedSlice, tr)
		tr.on.Store(false)
		traced = append(traced, rs.lat...)
	}
	tr.reset()
	if reads > 0 {
		lay["runtime.alloc_bytes_per_read"] = float64(allocs) / float64(reads)
	}
	if u := untraced.median(); u > 0 {
		lay["trace.overhead_ratio"] = traced.median() / u
	}
	if appends {
		// The burst goes to the untraced twin, which is then dropped, so
		// the measured graph's update stream stays the seeded prefix.
		burst := makeBatches(ue.d, cfg.seed, 0, soloBatches)
		targets := appendTargets(ue.g)
		before := readRuntime()
		for _, b := range burst {
			if err := applyIndexed(targets, b, nil); err != nil {
				return nil, fmt.Errorf("append burst: %w", err)
			}
		}
		events := float64(len(burst) * appendBatch)
		lay["runtime.alloc_bytes_per_event"] = float64(readRuntime().allocBytes-before.allocBytes) / events
	}
	return lay, nil
}

// putSetup reports the set-up and storage metrics every workload shares.
func putSetup(o *outcome, e *env, times setupTimes, store storage, heap float64) {
	o.put("setup_s", "s", times.setupS.median(), len(times.setupS))
	o.put("load_rows_s", "rows/s", times.loadRate.median(), len(times.loadRate))
	o.put("storage_bytes_per_row", "B", store.bytesPerRow(), 0)
	o.put("heap_live_mb", "MiB", heap, 0)
	o.put("columnar.cache_build_ms", "ms", times.cacheMs.median(), len(times.cacheMs))
	o.put("columnar.bytes_per_row", "B", e.columnarBytesPerRow(), 0)
	o.put("core.data_bytes_per_row", "B", perRow(store.data, store.rows), 0)
	o.put("core.index_bytes_per_row", "B", perRow(store.index, store.rows), 0)
	o.put("core.batch_bytes_per_row", "B", perRow(store.batch, store.rows), 0)
	o.meta["indexed_rows"] = store.rows
}

func perRow(bytes, rows int64) float64 {
	if rows == 0 {
		return 0
	}
	return float64(bytes) / float64(rows)
}

// queryLayers derives the session, parser, planner, RDD, physical, memory
// and spill metrics from the engine queries the traced window captured;
// ops is the number of client operations that issued them.
func queryLayers(lay map[string]float64, tr *tracer, ops float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	a := &tr.q
	if ops > 0 {
		lay["session.queries_per_read"] = float64(a.queries) / ops
		for _, op := range physicalOps {
			lay["physical."+op+".wall_ms"] = float64(a.opWallNs[op]) / 1e6 / ops
		}
	}
	lay["session.first_row_us"] = a.firstRowUs.median()
	lay["session.drain_us"] = a.drainUs.median()
	lay["sqlparser.parse_us"] = a.parseUs.median()
	lay["opt.plan_us"] = a.planUs.median()
	lay["rdd.task_ms"] = a.taskMs.median()
	lay["rdd.shuffle_write_ms"] = a.shufWriteMs.median()
	lay["rdd.shuffle_fetch_ms"] = a.shufFetchMs.median()
	if a.queries > 0 {
		lay["rdd.tasks_per_query"] = float64(a.tasks) / float64(a.queries)
		lay["rdd.shuffle_bytes_per_query"] = float64(a.shuffleBytes) / float64(a.queries)
	}
	if a.rowsReturned > 0 {
		lay["physical.rows_examined_per_result"] = float64(a.rowsExamined) / float64(a.rowsReturned)
	}
	lay["memory.query_peak_mb"] = float64(a.memPeak) / (1 << 20)
}

// scanRate times full snapshot scans of an indexed table
// (core.Snapshot.ScanPartition) and returns the median rows per second.
func scanRate(t *core.IndexedTable) float64 {
	var rates samples
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		snap := t.Snapshot()
		var rows int64
		for p := 0; p < snap.NumPartitions(); p++ {
			_ = snap.ScanPartition(p, func(sqltypes.Row) bool { rows++; return true })
		}
		rates.add(float64(rows) / time.Since(t0).Seconds())
	}
	return rates.median()
}

// finishTrace writes the trace file and folds the per-layer metrics into
// the report.
func finishTrace(cfg runConfig, o *outcome, tr *tracer, lay map[string]float64) error {
	if err := tr.writeChromeTrace(cfg.traceOut); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	tr.mu.Lock()
	o.meta["trace_file"] = cfg.traceOut
	o.meta["trace_spans"] = len(tr.spans)
	o.meta["trace_spans_dropped"] = tr.dropped
	top := map[string]float64{}
	for label, ns := range tr.q.opWallNs {
		top[label] = float64(ns) / 1e6
	}
	o.meta["op_wall_ms_total"] = top
	tr.mu.Unlock()
	for _, d := range perLayer {
		if _, ok := o.report[d.name]; !ok {
			o.put(d.name, d.unit, lay[d.name], 0)
		}
	}
	return nil
}

// runAnalyticWorkload runs the SQL suite at sf 16 under a per-query memory
// budget with spilling enabled.
func runAnalyticWorkload(cfg runConfig, o *outcome) error {
	sf := cfg.sf
	if sf == 0 {
		sf = analyticSF
	}
	if err := os.MkdirAll(cfg.spillDir, 0o755); err != nil {
		return err
	}
	var tr *tracer
	engineCfg := indexeddf.Config{BroadcastThreshold: 1, QueryMemoryLimit: analyticBudget, SpillDir: cfg.spillDir}
	baseCfg := engineCfg
	if cfg.trace {
		tr = newTracer()
		engineCfg = tr.config(engineCfg)
	}
	e, times, err := setupRepeated(cfg.setups, func() (*env, error) {
		return setupAnalytic(sf, cfg.seed, engineCfg)
	})
	if err != nil {
		return err
	}
	defer e.sess.Close()
	suite, err := suiteFor(e)
	if err != nil {
		return err
	}
	o.meta["scale_factor"] = sf
	o.meta["dataset_rows"] = e.d.Rows()
	o.meta["query_memory_limit_bytes"] = analyticBudget
	o.meta["suite_statements"] = len(suite)
	o.meta["client"] = "1 closed-loop client, whole suite per pass in a seeded order"

	// One untimed pass warms the session's lazily built state.
	for _, q := range suite {
		if _, _, _, err := runStatement(e.sess, q.sql, false); err != nil {
			return fmt.Errorf("warm-up %s: %w", q.name, err)
		}
	}

	var lay map[string]float64
	if tr != nil {
		tr.sess = e.sess
		lay, err = analyticTracedExtras(e, suite, baseCfg, tr)
		if err != nil {
			return err
		}
		tr.on.Store(true)
	}
	rtBefore := readRuntime()
	st := analyticWindow(e.sess, suite, cfg.seed, cfg.duration, tr)
	rtAfter := readRuntime()
	if tr != nil {
		tr.on.Store(false)
	}
	heap := heapLiveMB()
	store := e.storage()

	// The suite mixes 1 ms lookups with 300 ms spilling sorts, so the
	// median statement sits between two statements and jumps between
	// them from run to run; a suite pass's time per statement does not.
	o.put("op_ms", "ms", st.passMs.median(), len(st.passMs))
	o.put("query_p50_ms", "ms", st.lat.median(), len(st.lat))
	o.put("query_p95_ms", "ms", st.lat.quantile(0.95), len(st.lat))
	if st.passWall > 0 {
		o.put("scan_rows_s", "rows/s", float64(st.rowsRead)/st.passWall.Seconds(), st.passes)
	}
	putSetup(o, e, times, store, heap)
	o.meta["suite_passes"] = st.passes
	o.res.Attempted = st.queries
	o.res.Failed = st.failed
	for _, s := range st.errs {
		o.problem("query: %s", s)
	}

	// Correctness, outside the timed region: the budgeted session against
	// an unconstrained one loaded from the same dataset.
	budgeted := runSuiteOnce(e.sess, suite)
	ue, err := loadAnalytic(e.d, indexeddf.Config{BroadcastThreshold: 1})
	if err != nil {
		return err
	}
	usuite, err := suiteFor(ue)
	if err != nil {
		ue.sess.Close()
		return err
	}
	unconstrained := runSuiteOnce(ue.sess, usuite)
	ue.sess.Close()
	n, errs := checkSuite(suite, budgeted, unconstrained, topCreators(e.d))
	o.res.Attempted += n
	o.res.Failed += int64(len(errs))
	for _, err := range errs {
		o.problem("check: %v", err)
	}
	if off := spillShape(suite, budgeted); len(off) > 0 {
		o.meta["spill_shape_off"] = off
	}

	if tr == nil {
		return nil
	}
	queryLayers(lay, tr, float64(st.queries))
	tr.mu.Lock()
	if st.passes > 0 {
		lay["spill.bytes_per_pass"] = float64(tr.q.spillBytes) / float64(st.passes)
		lay["spill.runs_per_pass"] = float64(tr.q.spillRuns) / float64(st.passes)
	}
	tr.mu.Unlock()
	lay["runtime.gc_pause_ms"] = gcPauseQuantileMs(rtBefore, rtAfter, 0.99)
	knows := e.indexed[0].IndexedCore() // loadAnalytic indexes knows first
	probe := newReadStats()
	for _, id := range snb.DefaultParams(e.d, paramsPerKind)["person"] {
		probeTable(knows, id, probe)
	}
	lay["core.probe_us"] = probe.probeUs.median()
	lay["core.chain_us"] = probe.chainUs.median()
	lay["core.snapshot_us"] = probe.snapshotUs.median()
	if len(probe.chainUs) > 0 {
		lay["core.rows_per_probe"] = float64(probe.probeRows) / float64(len(probe.chainUs))
	}
	lay["core.scan_rows_s"] = scanRate(knows)
	return finishTrace(cfg, o, tr, lay)
}

// suiteFor builds the SQL suite against an analytic environment's tables.
func suiteFor(e *env) ([]sqlQuery, error) {
	knowsIdx, err := e.indexedName("knows")
	if err != nil {
		return nil, err
	}
	personIdx, err := e.indexedName("person")
	if err != nil {
		return nil, err
	}
	return analyticSuite(e.d, knowsIdx, personIdx), nil
}

// analyticTracedExtras runs each statement alternately on an untraced twin
// session and the traced one (trace.overhead_ratio) and measures the
// allocation per statement on the untraced twin.
func analyticTracedExtras(e *env, suite []sqlQuery, baseCfg indexeddf.Config, tr *tracer) (map[string]float64, error) {
	lay := map[string]float64{}
	ue, err := loadAnalytic(e.d, baseCfg)
	if err != nil {
		return nil, err
	}
	defer ue.sess.Close()
	usuite, err := suiteFor(ue)
	if err != nil {
		return nil, err
	}
	// Statement costs differ 300-fold, so compare suite totals, not medians.
	var untraced, traced time.Duration
	var allocs uint64
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for i := range suite {
			before := readRuntime()
			t0 := time.Now()
			if _, _, _, err := runStatement(ue.sess, usuite[i].sql, false); err != nil {
				return nil, err
			}
			untraced += time.Since(t0)
			allocs += readRuntime().allocBytes - before.allocBytes
			tr.on.Store(true)
			t0 = time.Now()
			_, _, _, err := runStatement(e.sess, suite[i].sql, false)
			traced += time.Since(t0)
			tr.on.Store(false)
			if err != nil {
				return nil, err
			}
		}
	}
	tr.reset()
	lay["runtime.alloc_bytes_per_read"] = float64(allocs) / float64(rounds*len(suite))
	if untraced > 0 {
		lay["trace.overhead_ratio"] = float64(traced) / float64(untraced)
	}
	return lay, nil
}
