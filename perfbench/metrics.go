package main

// The metric catalogue. BENCHMARK.json lists the same names and units;
// the self-test keeps the two in step.

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the untraced run's metrics. Each is defined on every
// workload: a "client operation" is an SQ call on short-reads and
// reads-under-appends and one SQL statement on analytic.
var endToEnd = []metricDef{
	{"op_ms", "ms"},                // typical client-operation latency (see README)
	{"storage_bytes_per_row", "B"}, // indexed batches + Ctrie bytes per indexed row
	{"heap_live_mb", "MiB"},        // live heap after a forced GC at run end
	{"setup_s", "s"},               // generation + load + cache build, median of setups
}

// physicalOps are the operators whose inclusive wall time the traced run
// reports (physical.<label>.wall_ms, per client operation): the row
// operators the short reads plan and the vectorized ones the SQL suite
// plans.
var physicalOps = []string{
	"Project", "IndexedJoin", "IndexLookup", "Sort",
	"VecProject", "VecExchange", "VecIndexedJoin", "VecShuffleHashJoin",
	"VecHashAgg", "VecSort", "VecTopN", "VecFilter", "VecColumnarScan", "IndexedScan",
}

// perLayer are the traced run's metrics. A metric a workload does not
// exercise reads 0 (no appends on short-reads, no SQL text on the reads).
var perLayer = func() []metricDef {
	defs := []metricDef{}
	for _, q := range []string{"SQ1", "SQ2", "SQ3", "SQ4", "SQ5", "SQ6", "SQ7"} {
		defs = append(defs, metricDef{"snb." + q + ".p50_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"session.queries_per_read", "count"},
		metricDef{"session.first_row_us", "us"},
		metricDef{"session.drain_us", "us"},
		metricDef{"sqlparser.parse_us", "us"},
		metricDef{"opt.plan_us", "us"},
		metricDef{"rdd.tasks_per_query", "count"},
		metricDef{"rdd.task_ms", "ms"},
		metricDef{"rdd.shuffle_bytes_per_query", "B"},
		metricDef{"rdd.shuffle_write_ms", "ms"},
		metricDef{"rdd.shuffle_fetch_ms", "ms"},
	)
	for _, op := range physicalOps {
		defs = append(defs, metricDef{"physical." + op + ".wall_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"physical.rows_examined_per_result", "ratio"},
		metricDef{"core.probe_us", "us"},
		metricDef{"core.chain_us", "us"},
		metricDef{"core.rows_per_probe", "count"},
		metricDef{"core.snapshot_us", "us"},
		metricDef{"core.append_p50_us", "us"},
		metricDef{"core.append_p99_us", "us"},
		metricDef{"core.batches_allocated", "count"},
		metricDef{"core.data_bytes_per_row", "B"},
		metricDef{"core.index_bytes_per_row", "B"},
		metricDef{"core.batch_bytes_per_row", "B"},
		metricDef{"core.scan_rows_s", "rows/s"},
		metricDef{"columnar.cache_build_ms", "ms"},
		metricDef{"columnar.bytes_per_row", "B"},
		metricDef{"memory.query_peak_mb", "MiB"},
		metricDef{"spill.bytes_per_pass", "B"},
		metricDef{"spill.runs_per_pass", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.alloc_bytes_per_read", "B"},
		metricDef{"runtime.alloc_bytes_per_event", "B"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"loadgen.backlog_batches", "count"},
		metricDef{"loadgen.append_p99_ms", "ms"},
		metricDef{"loadgen.visible_p99_ms", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	return defs
}()
