package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"indexeddf"
	"indexeddf/internal/bench"
	"indexeddf/internal/catalog"
	"indexeddf/internal/obs"
)

// figure is one -fig experiment: workloads whose arms are timed one after
// another over data that load builds.
type figure struct {
	name  string // -fig value and the JSON "figure" field
	title string
	// results writes the JSON "results" list of Figures 2 and 3 (one
	// {name, <arm>_ns, speedup, rows} entry per workload) instead of a
	// <name> object of <workload>_<arm>_ns and _alloc_bytes keys.
	results bool
	// load builds the sessions the arms read; it runs once, before the
	// first workload, so listing the figures loads nothing.
	load      func() error
	close     func() // releases what load built; may be nil
	workloads []bench.Workload
	// info holds the figure's parameters, and counts its arms record,
	// for the printed table and the JSON object.
	info map[string]any
}

// figures is the figure table, in -fig all order.
func figures(sf float64, seed int64) []figure {
	return []figure{
		envFigure("2", fmt.Sprintf("Figure 2: SQL operators on person_knows_person (sf=%.2f, cluster regime: no broadcast)", sf),
			bench.EnvConfig{ScaleFactor: sf, Seed: seed, BroadcastThreshold: 1}, bench.Figure2Ops),
		envFigure("3", fmt.Sprintf("Figure 3: SNB simple read queries SQ1-SQ7 (sf=%.2f, 8 params each)", sf),
			bench.EnvConfig{ScaleFactor: sf, Seed: seed}, bench.Figure3Ops),
		memFigure(sf, seed),
		viewFigure(),
		prepareFigure(),
		kvFigure("shuffle", "Batch exchange vs row exchange: 1M-row GROUP BY through the shuffle (100k groups)",
			groupedKV(1_000_000, 100_000), engineArms,
			kvQuery{sql: "SELECT k, COUNT(*) AS cnt, SUM(v) AS total, AVG(v) AS mean FROM t GROUP BY k"}),
		kvFigure("sort", "Batch sort vs row sort: 1M-row ORDER BY, and the fused top-n (LIMIT 100)",
			sortKV(1_000_000, 100), engineArms,
			kvQuery{"sort", "SELECT k, v FROM t ORDER BY v, k", true},
			kvQuery{"topn", "SELECT k, v FROM t ORDER BY v, k LIMIT 100", true}),
		// Generous budgets: the point is the accounting cost, not the
		// limit — nothing here may trip.
		kvFigure("memacct", "Memory accounting overhead: budgets on vs off, 1M-row GROUP BY + top-n pipeline",
			groupedKV(1_000_000, 100_000),
			[]kvArm{{"acct", indexeddf.Config{MemoryLimit: 4 << 30, QueryMemoryLimit: 2 << 30}}, {"bare", indexeddf.Config{}}},
			kvQuery{sql: topGroupsQuery, ordered: true}),
		// The obs arm sizes the trace ring, so every query records full
		// detail; the default config records counters only.
		kvFigure("obs", "Observability overhead: full detail (operator stats, trace ring) vs off, 1M-row GROUP BY + top-n pipeline",
			groupedKV(1_000_000, 100_000),
			[]kvArm{{"obs", indexeddf.Config{TraceCapacity: obs.DefaultTraceCapacity}},
				{"bare", indexeddf.Config{DisableObservability: true}}},
			kvQuery{sql: topGroupsQuery, ordered: true}),
		spillFigure(),
		adaptFigure(),
	}
}

// topGroupsQuery is scan, hash aggregate, columnar exchange and top-n:
// every operator that charges the memory tracker and records stats.
const topGroupsQuery = "SELECT k, COUNT(*) AS cnt, SUM(v) AS total FROM t GROUP BY k ORDER BY total DESC, k LIMIT 100"

// envFigure compares ops on the vanilla and indexed SNB engines.
func envFigure(name, title string, cfg bench.EnvConfig, ops func(*bench.Env) []bench.Op) figure {
	e := new(bench.Env)
	return figure{name: name, title: title, results: true,
		load: func() error {
			loaded, err := bench.NewEnv(cfg)
			if err == nil {
				*e = *loaded
			}
			return err
		},
		workloads: bench.Compare(e, ops(e)),
	}
}

// memFigure reports the §2 memory-overhead claim; it times nothing.
func memFigure(sf float64, seed int64) figure {
	info := map[string]any{}
	return figure{name: "mem", title: fmt.Sprintf("§2 claim: memory overhead of the Indexed DataFrame (knows table, sf=%.2f)", sf),
		info: info,
		load: func() error {
			e, err := bench.NewEnv(bench.EnvConfig{ScaleFactor: sf, Seed: seed})
			if err != nil {
				return err
			}
			r := bench.Memory(e)
			info["columnar_bytes"] = r.ColumnarBytes
			info["data_bytes"] = r.DataBytes
			info["index_bytes"] = r.IndexBytes
			info["batch_bytes"] = r.BatchBytes
			info["overhead_per_copy"] = r.OverheadPerCopy
			return nil
		},
	}
}

// kvData describes a k, v table: its size, row i's values, and the
// parameters the JSON records.
type kvData struct {
	rows int
	kv   func(i int) (k, v int64)
	info map[string]any
}

func groupedKV(rows, groups int) kvData {
	return kvData{rows, func(i int) (int64, int64) { return int64(i % groups), int64(i) },
		map[string]any{"rows": rows, "groups": groups}}
}

// sortKV is a pseudo-random permutation of k with heavy ties on v.
func sortKV(rows, topN int) kvData {
	return kvData{rows, func(i int) (int64, int64) { return int64((i * 2654435761) % rows), int64(i % 65536) },
		map[string]any{"rows": rows, "top_n": topN}}
}

// kvArm is one session configuration over the k, v table.
type kvArm struct {
	name string
	cfg  indexeddf.Config
}

// engineArms compare the batch (vectorized) engine with the row engine.
var engineArms = []kvArm{{"batch", indexeddf.Config{}}, {"row", indexeddf.Config{DisableVectorized: true}}}

// kvQuery is one workload of a k, v figure.
type kvQuery struct {
	workload string // JSON key prefix; empty for a figure's only query
	sql      string
	ordered  bool
}

// kvFigure runs each query on one k, v session per arm: same query,
// same data, only the session configuration differs.
func kvFigure(name, title string, data kvData, arms []kvArm, queries ...kvQuery) figure {
	sessions := make([]*indexeddf.Session, len(arms))
	f := figure{name: name, title: title, info: data.info,
		load: func() (err error) {
			for i, a := range arms {
				if sessions[i], err = bench.KVSession(a.cfg, data.rows, data.kv); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for _, q := range queries {
		w := bench.Workload{Name: q.workload, Ordered: q.ordered}
		for i, a := range arms {
			w.Arms = append(w.Arms, bench.Arm{Name: a.name,
				Rows: func() ([]indexeddf.Row, error) { return bench.Collect(sessions[i], q.sql) }})
		}
		f.workloads = append(f.workloads, w)
	}
	return f
}

// viewFigure times incremental view maintenance against full
// recomputation: a GROUP BY view over a base table receives 256-row
// update batches, and each trial refreshes (or recomputes) it.
func viewFigure() figure {
	f := figure{name: "view", results: true,
		title: "Materialized views: delta refresh vs full recompute (128 groups, 256-row update batches)"}
	var loads []func() error
	for _, base := range []int{1_000, 100_000} {
		full, loadFull := viewArm("vanilla", base, true)
		delta, loadDelta := viewArm("indexed", base, false)
		loads = append(loads, loadFull, loadDelta)
		f.workloads = append(f.workloads, bench.Workload{
			Name: fmt.Sprintf("view-refresh-%dk-base", base/1000), Arms: []bench.Arm{full, delta}})
	}
	f.load = loadAll(loads)
	return f
}

// viewArm owns its own base table and view, so the two arms see the same
// update batches and must end in the same state.
func viewArm(name string, baseRows int, recompute bool) (bench.Arm, func() error) {
	const groups, deltaRows = 128, 256
	var df *indexeddf.DataFrame
	var v catalog.MaterializedView
	load := func() error {
		sess := indexeddf.NewSession(indexeddf.Config{})
		schema := indexeddf.NewSchema(
			indexeddf.Field{Name: "id", Type: indexeddf.Int64},
			indexeddf.Field{Name: "grp", Type: indexeddf.Int64},
			indexeddf.Field{Name: "val", Type: indexeddf.Int64},
		)
		var err error
		if df, err = sess.CreateIndexedTable("events", schema, 0); err != nil {
			return err
		}
		rows := make([]indexeddf.Row, baseRows)
		for i := range rows {
			rows[i] = indexeddf.R(int64(i), int64(i%groups), int64(i))
		}
		if _, err := df.AppendRowsSlice(rows); err != nil {
			return err
		}
		v, err = sess.CreateMaterializedView("v",
			"SELECT grp, COUNT(*) AS cnt, SUM(val) AS total, AVG(val) AS mean FROM events GROUP BY grp")
		return err
	}
	next := int64(baseRows)
	run := func() error {
		if recompute {
			return v.Recompute()
		}
		return v.Refresh()
	}
	return bench.Arm{Name: name,
		// One update batch: deltaRows appends, then one of them deleted.
		Setup: func() error {
			batch := make([]indexeddf.Row, deltaRows)
			for i := range batch {
				batch[i] = indexeddf.R(next, next%groups, next)
				next++
			}
			if _, err := df.AppendRowsSlice(batch); err != nil {
				return err
			}
			df.IndexedCore().Delete(indexeddf.V(next - 1 - deltaRows/2))
			return nil
		},
		Run: run,
		Rows: func() ([]indexeddf.Row, error) {
			if err := run(); err != nil {
				return nil, err
			}
			return v.RefreshRows()
		},
	}, load
}

// prepareFigure times an indexed point lookup through a prepared
// statement (plan compiled once, `?` bound per call) against the same
// lookup through parse-per-call Session.SQL, on one session: the gap is
// exactly the compilation pipeline the prepared path skips. A trial is
// 64 lookups; times are per lookup.
func prepareFigure() figure {
	f := figure{name: "prepare", results: true,
		title: "Prepared statements: plan-cache execution vs parse-per-call SQL (indexed point lookup)"}
	var loads []func() error
	for _, base := range []int{10_000, 100_000} {
		var sess *indexeddf.Session
		var stmt *indexeddf.Stmt
		loads = append(loads, func() error {
			sess = indexeddf.NewSession(indexeddf.Config{})
			schema := indexeddf.NewSchema(
				indexeddf.Field{Name: "id", Type: indexeddf.Int64},
				indexeddf.Field{Name: "score", Type: indexeddf.Int64},
			)
			df, err := sess.CreateIndexedTable("points", schema, 0)
			if err != nil {
				return err
			}
			rows := make([]indexeddf.Row, base)
			for i := range rows {
				rows[i] = indexeddf.R(int64(i), int64(i%97))
			}
			if _, err := df.AppendRowsSlice(rows); err != nil {
				return err
			}
			stmt, err = sess.Prepare("SELECT id, score FROM points WHERE id = ?")
			return err
		})
		keys := make([]int64, 64)
		for i := range keys {
			keys[i] = int64((i * 6151) % base) // deterministic spread
		}
		lookups := func(one func(key int64) ([]indexeddf.Row, error)) func() ([]indexeddf.Row, error) {
			return func() ([]indexeddf.Row, error) {
				var out []indexeddf.Row
				for _, k := range keys {
					rows, err := one(k)
					if err != nil {
						return nil, err
					}
					out = append(out, rows...)
				}
				return out, nil
			}
		}
		f.workloads = append(f.workloads, bench.Workload{
			Name: fmt.Sprintf("point lookup %dk rows", base/1000), Calls: len(keys), Arms: []bench.Arm{
				{Name: "vanilla", Rows: lookups(func(k int64) ([]indexeddf.Row, error) {
					return bench.Collect(sess, fmt.Sprintf("SELECT id, score FROM points WHERE id = %d", k))
				})},
				{Name: "indexed", Rows: lookups(func(k int64) ([]indexeddf.Row, error) {
					return stmt.Collect(context.Background(), k)
				})},
			}})
	}
	f.load = loadAll(loads)
	return f
}

// spillFigure times what going out of core costs: a full sort, a shuffle
// GROUP BY, a GROUP BY whose group table overflows and a shuffle join
// whose build side does, each unconstrained in memory and under a budget
// about a tenth of the working set with spilling on. The sort also runs
// through the single k-way merge (SortPartitions=1) that the
// range-partitioned parallel merge replaced.
func spillFigure() figure {
	const rows, groups, budget = 200_000, 3_000, int64(2 << 20)
	info := map[string]any{"rows": rows, "groups": groups, "budget_bytes": budget}
	// Many narrow table partitions keep the unspillable per-task aggregate
	// tables small while multiplying the shuffled partial results the
	// fabric has to absorb. BroadcastThreshold 1 forces the join through
	// the shuffle hash join, whose build side is what goes grace.
	base := indexeddf.Config{TablePartitions: 64, ShufflePartitions: 4, Parallelism: 2, BroadcastThreshold: 1}
	// Arm name → session: "inmem" runs unconstrained; "spill" and
	// "singlemerge" (SortPartitions=1) run under the budget with spilling.
	sessions := map[string]*indexeddf.Session{}
	mk := func(arm string) (*indexeddf.Session, error) {
		cfg := base
		if arm != "inmem" {
			cfg.QueryMemoryLimit = budget
			cfg.SpillDir = os.TempDir() // the session spills into its own subdirectory
		}
		if arm == "singlemerge" {
			cfg.SortPartitions = 1
		}
		sess := indexeddf.NewSession(cfg)
		schema := indexeddf.NewSchema(
			indexeddf.Field{Name: "k", Type: indexeddf.Int64},
			indexeddf.Field{Name: "v", Type: indexeddf.Int64},
			indexeddf.Field{Name: "pad", Type: indexeddf.String},
		)
		pad := strings.Repeat("x", 48)
		data := make([]indexeddf.Row, rows)
		for i := range data {
			data[i] = indexeddf.R(int64(i%groups), int64(i), fmt.Sprintf("%s-%08d", pad, i%groups))
		}
		if _, err := sess.CreateTable("t", schema, data); err != nil {
			return nil, err
		}
		// Join build side: rows/2 fat rows whose keys hit t.v with 5
		// duplicates each — per reduce co-partition it overflows the
		// budget, so the constrained join goes grace.
		bdata := make([]indexeddf.Row, rows/2)
		for i := range bdata {
			bdata[i] = indexeddf.R(int64(i%(rows/10)), int64(i), fmt.Sprintf("%s-%08d", pad, i))
		}
		if _, err := sess.CreateTable("b", schema, bdata); err != nil {
			return nil, err
		}
		return sess, nil
	}
	work := func(name string, ordered bool, q string, arms ...string) bench.Workload {
		w := bench.Workload{Name: name, Ordered: ordered}
		for _, a := range arms {
			w.Arms = append(w.Arms, spillArm(sessions, a, name, q, info))
		}
		return w
	}
	return figure{name: "spill", info: info,
		title: fmt.Sprintf("Out-of-core execution: %dk-row sort, GROUP BY (exchange & group-table spill), grace join — ~10x over a %d MiB budget vs unconstrained",
			rows/1000, budget>>20),
		load: func() error {
			for _, arm := range []string{"inmem", "spill", "singlemerge"} {
				sess, err := mk(arm)
				if err != nil {
					return err
				}
				sessions[arm] = sess
			}
			return nil
		},
		close: func() {
			for _, sess := range sessions {
				sess.Close()
			}
		},
		workloads: []bench.Workload{
			work("sort", true, "SELECT k, v, pad FROM t ORDER BY v, k", "spill", "inmem", "singlemerge"),
			work("agg", false, "SELECT k, COUNT(*) AS cnt, SUM(v) AS total, MIN(pad) AS p FROM t GROUP BY k", "spill", "inmem"),
			// Every v is distinct, so the group table holds one entry per
			// input row — far over any budget — while HAVING keeps the
			// output empty.
			work("aggtable", false, "SELECT v, COUNT(*) AS c FROM t GROUP BY v HAVING COUNT(*) > 1", "spill", "inmem"),
			work("grace", false, "SELECT COUNT(*) AS c, SUM(t.k) AS sk FROM t JOIN b ON t.v = b.k", "spill", "inmem"),
		},
	}
}

// spillArm drains q through the arm's cursor, so the sorted output
// streams instead of gathering. A constrained arm must spill; its
// cross-check records the query's spill totals in info.
func spillArm(sessions map[string]*indexeddf.Session, name, workload, q string, info map[string]any) bench.Arm {
	drain := func(keep bool) ([]indexeddf.Row, error) {
		cur, err := sessions[name].Query(context.Background(), q)
		if err != nil {
			return nil, err
		}
		defer cur.Close()
		var rows []indexeddf.Row
		for cur.Next() {
			if keep {
				rows = append(rows, cur.Row())
			}
		}
		if err := cur.Err(); err != nil {
			return nil, err
		}
		if name != "inmem" {
			qs := cur.Stats()
			if qs.SpillRuns() == 0 {
				return nil, fmt.Errorf("constrained run did not spill (budget too generous): %s", q)
			}
			if keep {
				info[workload+"_"+name+"_runs"] = qs.SpillRuns()
				info[workload+"_"+name+"_bytes"] = qs.SpillBytes()
			}
		}
		return rows, nil
	}
	return bench.Arm{Name: name,
		Rows: func() ([]indexeddf.Row, error) { return drain(true) },
		Run:  func() error { _, err := drain(false); return err },
	}
}

func loadAll(loads []func() error) func() error {
	return func() error {
		for _, load := range loads {
			if err := load(); err != nil {
				return err
			}
		}
		return nil
	}
}

// adaptFigure times the runtime-adaptive filter cascade on a 1M-row scan
// whose WHERE clause is written in the worst conjunct order — a lax,
// expensive string comparison first (selectivity ~1.0), then ~0.9, ~0.5
// and a highly selective equality (~0.001) last. Three arms run it: the
// static fused kernel (adaptivity off), the adaptive cascade, and the
// cascade on hand-ordered text (the oracle it should converge to).
// Statistics are off for all three, so the planner leaves the written
// order alone: what is measured is purely the runtime reordering.
//
// The "ingest" workload times what incremental statistics cost on the
// ingest path: 100k appends in 1k batches into a fresh indexed table,
// stats accumulators on vs off.
func adaptFigure() figure {
	const rows, ingestRows = 1_000_000, 100_000
	schema := indexeddf.NewSchema(
		indexeddf.Field{Name: "s", Type: indexeddf.String},
		indexeddf.Field{Name: "a", Type: indexeddf.Int64},
		indexeddf.Field{Name: "b", Type: indexeddf.Int64},
		indexeddf.Field{Name: "c", Type: indexeddf.Int64},
	)
	var static, adaptive *indexeddf.Session
	var ingest []indexeddf.Row
	load := func() error {
		rng := rand.New(rand.NewSource(7))
		data := make([]indexeddf.Row, rows)
		for i := range data {
			data[i] = indexeddf.R(
				fmt.Sprintf("tag-%d", i%16), // s <> 'none' keeps everything
				int64(rng.Intn(1000)),       // a < 900: ~0.9
				int64(rng.Intn(1000)),       // b < 500: ~0.5
				int64(rng.Intn(1000)),       // c = 7:   ~0.001
			)
		}
		mk := func(adaptive bool) (*indexeddf.Session, error) {
			sess := indexeddf.NewSession(indexeddf.Config{DisableStats: true, DisableAdaptiveFilter: !adaptive})
			df, err := sess.CreateTable("t", schema, data)
			if err != nil {
				return nil, err
			}
			_, err = df.Cache()
			return sess, err
		}
		var err error
		if static, err = mk(false); err != nil {
			return err
		}
		if adaptive, err = mk(true); err != nil {
			return err
		}
		// Unique a, the ingest table's index key, so every append inserts
		// rather than overwrites.
		ingest = make([]indexeddf.Row, ingestRows)
		for i := range ingest {
			ingest[i] = indexeddf.R(fmt.Sprintf("tag-%d", i%16), int64(i), int64((i*7)%1000), int64((i*13)%1000))
		}
		return nil
	}
	const misOrdered = "SELECT a, c FROM t WHERE s <> 'none' AND a < 900 AND b < 500 AND c = 7"
	const handOrdered = "SELECT a, c FROM t WHERE c = 7 AND b < 500 AND a < 900 AND s <> 'none'"
	ingestArm := func(name string, stats bool) bench.Arm {
		var df *indexeddf.DataFrame
		appendAll := func() error {
			for off := 0; off < len(ingest); off += 1_000 {
				if _, err := df.AppendRowsSlice(ingest[off:min(off+1_000, len(ingest))]); err != nil {
					return err
				}
			}
			return nil
		}
		return bench.Arm{Name: name,
			Setup: func() (err error) {
				sess := indexeddf.NewSession(indexeddf.Config{DisableStats: !stats})
				df, err = sess.CreateIndexedTable("ingest", schema, 1)
				return err
			},
			Run: appendAll,
			Rows: func() ([]indexeddf.Row, error) {
				if err := appendAll(); err != nil {
					return nil, err
				}
				return df.Collect()
			},
		}
	}
	return figure{name: "adapt", load: load, info: map[string]any{"rows": rows, "ingest_rows": ingestRows},
		title: "Adaptive filter cascade: 1M-row scan, deliberately mis-ordered 4-conjunct WHERE (sel ~1.0 string, 0.9, 0.5, 0.001)",
		workloads: []bench.Workload{
			{Arms: []bench.Arm{
				{Name: "static", Rows: func() ([]indexeddf.Row, error) { return bench.Collect(static, misOrdered) }},
				{Name: "adaptive", Rows: func() ([]indexeddf.Row, error) { return bench.Collect(adaptive, misOrdered) }},
				{Name: "hand", Rows: func() ([]indexeddf.Row, error) { return bench.Collect(adaptive, handOrdered) }},
			}},
			{Name: "ingest", WallOnly: true, Arms: []bench.Arm{ingestArm("stats", true), ingestArm("bare", false)}},
		},
	}
}
