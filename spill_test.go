package indexeddf

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"indexeddf/internal/obs"
	"indexeddf/internal/testutil"
)

// Out-of-core equivalence: the same randomized queries run in an
// unconstrained in-memory session and in a session whose budget is a
// fraction of the working set with a SpillDir, and must produce identical
// results — with the constrained run actually spilling, keeping its
// tracker high-water under the budget, and leaving no run files, fds or
// goroutines behind.

// spillSchema is the randomized-table schema: unique id, low-cardinality
// nullable val (ties and NULLs for the sort), and a fat group key that
// makes shuffled bytes dwarf aggregate state.
func spillSchema() *Schema {
	return NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "val", Type: Int64, Nullable: true},
		Field{Name: "grp", Type: String},
	)
}

// spillRows builds n randomized rows: ~5% NULL vals, heavy ties on val,
// and grp drawn from g distinct 64-byte strings.
func spillRows(rng *rand.Rand, n, g int) []Row {
	pad := strings.Repeat("x", 48)
	rows := make([]Row, n)
	for i := range rows {
		var val any
		if rng.Intn(20) != 0 {
			val = int64(rng.Intn(50))
		}
		rows[i] = R(int64(i), val, fmt.Sprintf("group-%s-%06d", pad, rng.Intn(g)))
	}
	return rows
}

// newSpillPair builds two sessions over the same table: in-memory
// unconstrained, and out-of-core with a tight per-query budget plus a
// SpillDir whose end-of-test emptiness is asserted. Both get the same
// partitioning (base) so plans match.
func newSpillPair(t *testing.T, name string, schema *Schema, rows []Row, queryLimit int64, base Config) (memSess, ocSess *Session) {
	t.Helper()
	testutil.CheckGoroutines(t)
	testutil.CheckFDs(t)
	dir := t.TempDir()
	testutil.CheckNoFiles(t, dir)
	memSess = NewSession(base)
	ocCfg := base
	ocCfg.QueryMemoryLimit = queryLimit
	ocCfg.SpillDir = dir
	ocSess = NewSession(ocCfg)
	t.Cleanup(func() {
		if err := ocSess.Close(); err != nil {
			t.Errorf("Session.Close: %v", err)
		}
	})
	for _, s := range []*Session{memSess, ocSess} {
		if _, err := s.CreateTable(name, schema, rows); err != nil {
			t.Fatal(err)
		}
	}
	return memSess, ocSess
}

// collectStats runs q to completion and returns rows plus query stats.
func collectStats(t *testing.T, s *Session, q string) ([]Row, *obs.QueryStats) {
	t.Helper()
	rows, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	out, err := drainRows(rows)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return out, rows.Stats()
}

// wantSameRows asserts two result sets are identical. ordered compares
// positionally; otherwise both sides are sorted first.
func wantSameRows(t *testing.T, got, want []Row, ordered bool) {
	t.Helper()
	if !ordered {
		sortRows(got)
		sortRows(want)
	}
	if len(got) != len(want) {
		t.Fatalf("row count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("row %d differs:\n  got  %v\n  want %v", i, got[i], want[i])
		}
	}
}

// wantSpilled asserts the constrained run actually went out of core and
// stayed under its budget.
func wantSpilled(t *testing.T, qs *obs.QueryStats, limit int64) {
	t.Helper()
	if qs.SpillRuns() == 0 {
		t.Fatal("constrained query did not spill (working set fit the budget; grow the data)")
	}
	if qs.SpillBytes() == 0 {
		t.Fatal("spill runs recorded but zero spill bytes")
	}
	if peak := qs.MemPeak(); peak > limit {
		t.Fatalf("tracker high-water %d exceeds budget %d", peak, limit)
	}
}

// TestSpillOrderByEquivalence: a full sort ~10x over budget externalizes
// into spilled sorted runs and merges back the exact in-memory order.
func TestSpillOrderByEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const limit = 512 << 10
	rows := spillRows(rng, 60_000, 500) // ~5 MiB working set
	memSess, ocSess := newSpillPair(t, "big", spillSchema(), rows, limit,
		Config{TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2})

	for _, q := range []string{
		"SELECT id, val, grp FROM big ORDER BY val, id",
		"SELECT id, val FROM big ORDER BY val DESC, id DESC",
	} {
		want, _ := collectStats(t, memSess, q)
		got, qs := collectStats(t, ocSess, q)
		wantSameRows(t, got, want, true)
		wantSpilled(t, qs, limit)
	}
}

// TestSpillGroupByEquivalence: a shuffle GROUP BY whose shuffled partial
// results dwarf the budget (fat keys, most groups present in most of the
// many map partitions) spills its shuffle runs and aggregates
// identically. The budget still has to fit the per-task hash-aggregate
// tables — those don't spill — so pressure comes from the exchange.
func TestSpillGroupByEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const limit = 1 << 20
	rows := spillRows(rng, 120_000, 3_000)
	memSess, ocSess := newSpillPair(t, "big", spillSchema(), rows, limit,
		Config{TablePartitions: 64, ShufflePartitions: 4, Parallelism: 2})

	q := "SELECT grp, COUNT(*), SUM(id), MIN(val) FROM big GROUP BY grp"
	want, _ := collectStats(t, memSess, q)
	got, qs := collectStats(t, ocSess, q)
	wantSameRows(t, got, want, false)
	wantSpilled(t, qs, limit)
}

// TestSpillJoinEquivalence: a shuffle hash join whose shuffled probe side
// is ~10x over budget spills both exchanges; the build side streams back
// from disk into the hash table. The joined rows feed an aggregate so the
// (charged, unspillable) result buffer stays small and the pressure is
// all on the join's own state.
func TestSpillJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const limit = 1 << 20
	// Left: 120k rows, val ∈ [0,5000) with ~5% NULLs that must never
	// join, fat grp payload so the shuffled side is ~10 MiB.
	pad := strings.Repeat("y", 48)
	left := make([]Row, 120_000)
	for i := range left {
		var val any
		if rng.Intn(20) != 0 {
			val = int64(rng.Intn(5_000))
		}
		left[i] = R(int64(i), val, fmt.Sprintf("left-%s-%06d", pad, i))
	}
	// BroadcastThreshold 1 forces the shuffle hash join: the small right
	// side would otherwise broadcast and no join exchange would exist.
	memSess, ocSess := newSpillPair(t, "l", spillSchema(), left, limit,
		Config{TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2, BroadcastThreshold: 1})
	// Right side: each key in [0,1250) appears twice (duplicate matches),
	// vals partly NULL.
	var right []Row
	for i := 0; i < 2_500; i++ {
		var val any
		if i%11 != 0 {
			val = int64(i)
		}
		right = append(right, R(int64(i%1_250), val, fmt.Sprintf("r-%06d", i)))
	}
	for _, s := range []*Session{memSess, ocSess} {
		if _, err := s.CreateTable("r", spillSchema(), right); err != nil {
			t.Fatal(err)
		}
	}

	q := "SELECT r.id, COUNT(*), MIN(l.grp) FROM l JOIN r ON l.val = r.id GROUP BY r.id"
	want, _ := collectStats(t, memSess, q)
	got, qs := collectStats(t, ocSess, q)
	if len(want) == 0 {
		t.Fatal("join produced no rows; fixture broken")
	}
	wantSameRows(t, got, want, false)
	wantSpilled(t, qs, limit)
}

// TestSpillRowExchangeOuterJoin: an outer join runs only on row
// operators, and its shuffled sides are over budget. Its exchanges spill
// like any other, and the count matches an unbudgeted session.
func TestSpillRowExchangeOuterJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const limit = 256 << 10
	memSess, ocSess := newSpillPair(t, "l", spillSchema(), spillRows(rng, 60_000, 500), limit,
		Config{TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2, BroadcastThreshold: 1})
	right := make([]Row, 2_000)
	for i := range right {
		right[i] = R(int64(i%1_000), nil, fmt.Sprintf("r-%06d", i))
	}
	for _, s := range []*Session{memSess, ocSess} {
		if _, err := s.CreateTable("r", spillSchema(), right); err != nil {
			t.Fatal(err)
		}
	}

	q := "SELECT COUNT(*) FROM l LEFT JOIN r ON l.val = r.id"
	df, err := ocSess.SQL("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if s := fmt.Sprint(plan); !strings.Contains(s, "ShuffleHashJoin LeftOuter") {
		t.Fatalf("plan has no row shuffle join:\n%s", s)
	}
	want, _ := collectStats(t, memSess, q)
	got, qs := collectStats(t, ocSess, q)
	wantSameRows(t, got, want, false)
	if n := want[0][0].Int64Val(); n <= 60_000 {
		t.Fatalf("count = %d; the fixture should produce duplicate matches", n)
	}
	wantSpilled(t, qs, limit)
}

// TestSpillEmptyPartitions: tiny tables over many partitions (most empty)
// behave identically with spilling configured — the degenerate end of the
// run-file format (zero-row runs, empty batches).
func TestSpillEmptyPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := spillRows(rng, 5, 2)
	memSess, ocSess := newSpillPair(t, "tiny", spillSchema(), rows, 1<<20,
		Config{TablePartitions: 16, ShufflePartitions: 4, Parallelism: 2})

	for _, q := range []string{
		"SELECT id, val FROM tiny ORDER BY val, id",
		"SELECT grp, COUNT(*) FROM tiny GROUP BY grp",
	} {
		want, _ := collectStats(t, memSess, q)
		got, _ := collectStats(t, ocSess, q)
		wantSameRows(t, got, want, strings.Contains(q, "ORDER BY"))
	}
}

// explainAnalyze runs EXPLAIN ANALYZE q and returns the rendered plan.
func explainAnalyze(t *testing.T, s *Session, q string) string {
	t.Helper()
	df, err := s.SQL("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	lines, err := df.Collect()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var sb strings.Builder
	for _, l := range lines {
		sb.WriteString(l[0].String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// skewedRows builds n rows whose val (and therefore group key) follows a
// pathological distribution — the shapes that break naive splitter
// picking and hash partitioning.
func skewedRows(rng *rand.Rand, n int, dist string) []Row {
	pad := strings.Repeat("z", 48)
	zipf := rand.NewZipf(rng, 1.3, 1.0, 2_500)
	rows := make([]Row, n)
	for i := range rows {
		var v int64
		switch dist {
		case "zipf":
			v = int64(zipf.Uint64())
		case "hotkey":
			if rng.Intn(10) != 0 {
				v = 7 // one value owns 90% of the rows
			} else {
				v = int64(rng.Intn(2_500))
			}
		case "presorted":
			v = int64(i / 48)
		case "reversed":
			v = int64((n - i) / 48)
		default:
			panic("unknown distribution " + dist)
		}
		var val any
		if rng.Intn(20) != 0 {
			val = v
		}
		rows[i] = R(int64(i), val, fmt.Sprintf("group-%s-%06d", pad, v))
	}
	return rows
}

var skewDists = []string{"zipf", "hotkey", "presorted", "reversed"}

// TestSpillSkewOrderBy: the range-partitioned external sort under the
// distributions that stress splitter picking — zipf, a single hot key
// (all its duplicates land in one range partition), already-sorted and
// reverse-sorted inputs — stays bit-identical to the in-memory order at
// ~10x over budget with the tracker high-water under the budget.
func TestSpillSkewOrderBy(t *testing.T) {
	for _, dist := range skewDists {
		t.Run(dist, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20260808))
			const limit = 512 << 10
			rows := skewedRows(rng, 80_000, dist) // ~7 MiB working set
			memSess, ocSess := newSpillPair(t, "big", spillSchema(), rows, limit,
				Config{TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2})

			q := "SELECT id, val, grp FROM big ORDER BY val, id"
			want, _ := collectStats(t, memSess, q)
			got, qs := collectStats(t, ocSess, q)
			wantSameRows(t, got, want, true)
			wantSpilled(t, qs, limit)
		})
	}
}

// TestSpillSkewGroupBy: the same distributions through the shuffle GROUP
// BY — hot groups concentrate partial state in one reduce task; zipf
// gives a long tail of tiny groups next to giant ones.
func TestSpillSkewGroupBy(t *testing.T) {
	for _, dist := range skewDists {
		t.Run(dist, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99 + int64(len(dist))))
			// 1 MiB rather than the sort tests' 512 KiB: the aggregate's
			// materialized result buffers are charged but can't spill, and
			// several thousand fat group keys of output must fit next to
			// the operator state.
			const limit = 1 << 20
			rows := skewedRows(rng, 120_000, dist)
			memSess, ocSess := newSpillPair(t, "big", spillSchema(), rows, limit,
				Config{TablePartitions: 32, ShufflePartitions: 4, Parallelism: 2})

			q := "SELECT grp, COUNT(*), SUM(id), MIN(val), MAX(val) FROM big GROUP BY grp"
			want, _ := collectStats(t, memSess, q)
			got, qs := collectStats(t, ocSess, q)
			wantSameRows(t, got, want, false)
			wantSpilled(t, qs, limit)
		})
	}
}

// TestSpillSkewJoin: skewed probe sides through the shuffle hash join —
// the hot key's matches all route to one reduce partition.
func TestSpillSkewJoin(t *testing.T) {
	for _, dist := range []string{"zipf", "hotkey"} {
		t.Run(dist, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			const limit = 1 << 20
			left := skewedRows(rng, 80_000, dist)
			memSess, ocSess := newSpillPair(t, "l", spillSchema(), left, limit,
				Config{TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2, BroadcastThreshold: 1})
			var right []Row
			for i := 0; i < 2_000; i++ {
				var val any
				if i%11 != 0 {
					val = int64(i)
				}
				right = append(right, R(int64(i%1_000), val, fmt.Sprintf("r-%06d", i)))
			}
			for _, s := range []*Session{memSess, ocSess} {
				if _, err := s.CreateTable("r", spillSchema(), right); err != nil {
					t.Fatal(err)
				}
			}

			q := "SELECT r.id, COUNT(*), MIN(l.grp) FROM l JOIN r ON l.val = r.id GROUP BY r.id"
			want, _ := collectStats(t, memSess, q)
			got, qs := collectStats(t, ocSess, q)
			if len(want) == 0 {
				t.Fatal("join produced no rows; fixture broken")
			}
			wantSameRows(t, got, want, false)
			wantSpilled(t, qs, limit)
		})
	}
}

// TestSpillDeepOverBudget: ~100x between working set and budget — the
// regime where one fan-out generation isn't enough and correctness
// depends on recursion (sort: many small runs; agg: multi-level
// fan-out). Results stay bit-identical and the high-water stays under
// the budget.
func TestSpillDeepOverBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const limit = 224 << 10
	// 400 distinct groups keep the aggregate's output (charged,
	// unspillable result buffers) a small fraction of the tiny budget —
	// the 100x pressure is all operator state.
	rows := spillRows(rng, 240_000, 400) // ~22 MiB working set
	memSess, ocSess := newSpillPair(t, "big", spillSchema(), rows, limit,
		Config{TablePartitions: 16, ShufflePartitions: 4, Parallelism: 2})

	for _, tc := range []struct {
		q       string
		ordered bool
	}{
		{"SELECT id, val, grp FROM big ORDER BY val, id", true},
		{"SELECT grp, COUNT(*), SUM(id), MIN(val) FROM big GROUP BY grp", false},
	} {
		want, _ := collectStats(t, memSess, tc.q)
		got, qs := collectStats(t, ocSess, tc.q)
		wantSameRows(t, got, want, tc.ordered)
		wantSpilled(t, qs, limit)
	}
}

// TestSpillAggTableOverflow forces the hash-aggregate table itself (not
// just the exchange) past the budget: ~unique fat group keys make the
// per-task group table the dominant state, so the aggregate fans its
// table out to disk and re-aggregates partition by partition. The
// EXPLAIN ANALYZE rendering of the aggregate carries the fan-out
// annotations.
func TestSpillAggTableOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const limit = 1 << 20
	pad := strings.Repeat("k", 48)
	rows := make([]Row, 100_000)
	for i := range rows {
		var val any
		if rng.Intn(20) != 0 {
			val = int64(rng.Intn(50))
		}
		// ~50k distinct fat keys: group state alone is ~7 MiB.
		rows[i] = R(int64(i), val, fmt.Sprintf("group-%s-%06d", pad, rng.Intn(50_000)))
	}
	memSess, ocSess := newSpillPair(t, "big", spillSchema(), rows, limit,
		Config{TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2})

	// HAVING keeps the output (whose result buffers are charged but
	// can't spill) tiny while every one of the ~50k groups still passes
	// through the fan-out machinery.
	q := "SELECT grp, COUNT(*), SUM(id), MIN(val), AVG(id) FROM big GROUP BY grp HAVING COUNT(*) > 5"
	want, _ := collectStats(t, memSess, q)
	got, qs := collectStats(t, ocSess, q)
	wantSameRows(t, got, want, false)
	wantSpilled(t, qs, limit)

	plan := explainAnalyze(t, ocSess, q)
	if !strings.Contains(plan, "fanout=8") || !strings.Contains(plan, "depth=") {
		t.Fatalf("aggregate fan-out not annotated in plan:\n%s", plan)
	}
}

// TestSpillGraceJoin forces the shuffle join's build side past the
// budget: the right (build) side is ~10x over, so the join goes grace —
// both sides fan out by join key and partition pairs join one at a
// time. Results match the in-memory join exactly and the plan carries
// the fan-out annotations.
func TestSpillGraceJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// 2 MiB: the grace pairs' build tables plus the downstream
	// aggregate's charged result buffers must coexist under one budget.
	const limit = 2 << 20
	// Probe side: 60k rows, val ∈ [0,8000) with NULLs.
	left := make([]Row, 60_000)
	for i := range left {
		var val any
		if rng.Intn(20) != 0 {
			val = int64(rng.Intn(8_000))
		}
		left[i] = R(int64(i), val, fmt.Sprintf("l-%06d", i))
	}
	memSess, ocSess := newSpillPair(t, "l", spillSchema(), left, limit,
		Config{TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2, BroadcastThreshold: 1})
	// Build side: 40k very fat rows (~18 MiB; ~4.5 MiB per reduce
	// co-partition, over the whole budget on its own). Keys in [0,8000)
	// appear 5 times each — duplicate matches — and vals are partly NULL.
	pad := strings.Repeat("b", 450)
	right := make([]Row, 40_000)
	for i := range right {
		var val any
		if i%13 != 0 {
			val = int64(i)
		}
		right[i] = R(int64(i%8_000), val, fmt.Sprintf("build-%s-%06d", pad, i))
	}
	for _, s := range []*Session{memSess, ocSess} {
		if _, err := s.CreateTable("r", spillSchema(), right); err != nil {
			t.Fatal(err)
		}
	}

	// Aggregate over narrow columns only: MIN over the fat build payload
	// would rematerialize it as unspillable result state.
	q := "SELECT l.val, COUNT(*), MIN(r.val) FROM l JOIN r ON l.val = r.id GROUP BY l.val"
	want, _ := collectStats(t, memSess, q)
	got, qs := collectStats(t, ocSess, q)
	if len(want) == 0 {
		t.Fatal("join produced no rows; fixture broken")
	}
	wantSameRows(t, got, want, false)
	wantSpilled(t, qs, limit)

	plan := explainAnalyze(t, ocSess, q)
	if !strings.Contains(plan, "fanout=8") {
		t.Fatalf("grace join fan-out not annotated in plan:\n%s", plan)
	}
}

// TestSpillSortParallelAblation: the same over-budget sort through the
// range-partitioned parallel merge (SortPartitions=4), the single k-way
// merge (SortPartitions=1, PR 8's shape), and the unconstrained
// in-memory path — three plans, one bit-identical answer. The parallel
// plan's sort carries its partition count.
func TestSpillSortParallelAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const limit = 512 << 10
	rows := spillRows(rng, 80_000, 500)
	base := Config{TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2}
	memSess, parSess := newSpillPair(t, "big", spillSchema(), rows, limit, base)

	singleCfg := base
	singleCfg.QueryMemoryLimit = limit
	singleCfg.SpillDir = t.TempDir()
	singleCfg.SortPartitions = 1
	singleSess := NewSession(singleCfg)
	t.Cleanup(func() {
		if err := singleSess.Close(); err != nil {
			t.Errorf("Session.Close: %v", err)
		}
	})
	if _, err := singleSess.CreateTable("big", spillSchema(), rows); err != nil {
		t.Fatal(err)
	}

	q := "SELECT id, val, grp FROM big ORDER BY val, id"
	want, _ := collectStats(t, memSess, q)
	gotPar, qsPar := collectStats(t, parSess, q)
	gotSingle, qsSingle := collectStats(t, singleSess, q)
	wantSameRows(t, gotPar, want, true)
	wantSameRows(t, gotSingle, want, true)
	wantSpilled(t, qsPar, limit)
	wantSpilled(t, qsSingle, limit)

	plan := explainAnalyze(t, parSess, q)
	if !strings.Contains(plan, "partitions=4") {
		t.Fatalf("parallel sort partition count not annotated in plan:\n%s", plan)
	}
}

// TestSpillTopNBounded pins the VecTopN exemption from spilling: its
// resident stores hold at most LIMIT rows per partition, so an
// over-budget ORDER BY ... LIMIT runs entirely in memory — flat
// high-water under the budget, zero spill runs — while the same data's
// full sort (TestSpillOrderByEquivalence) must externalize.
func TestSpillTopNBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const limit = 512 << 10
	rows := spillRows(rng, 60_000, 500) // same ~5 MiB working set as the full-sort test
	memSess, ocSess := newSpillPair(t, "big", spillSchema(), rows, limit,
		Config{TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2})

	q := "SELECT id, val, grp FROM big ORDER BY val, id LIMIT 25"
	want, _ := collectStats(t, memSess, q)
	got, qs := collectStats(t, ocSess, q)
	wantSameRows(t, got, want, true)
	if qs.SpillRuns() != 0 {
		t.Fatalf("Top-N spilled %d runs; its stores are bounded by LIMIT and must not spill", qs.SpillRuns())
	}
	if peak := qs.MemPeak(); peak > limit {
		t.Fatalf("Top-N high-water %d exceeds budget %d", peak, limit)
	}
}

// TestSpillEarlyCloseCleanup: abandoning a spilling cursor after a few
// rows must reap every run file and fd (the deferred CheckNoFiles /
// CheckFDs assert it), and the session keeps answering queries.
func TestSpillEarlyCloseCleanup(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const limit = 512 << 10
	rows := spillRows(rng, 60_000, 500)
	_, ocSess := newSpillPair(t, "big", spillSchema(), rows, limit,
		Config{TablePartitions: 8, ShufflePartitions: 4, Parallelism: 2})

	cur, err := ocSess.Query(context.Background(), "SELECT id, val, grp FROM big ORDER BY val, id")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && cur.Next(); i++ {
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitShufflesReleased(t, ocSess)

	got, qs := collectStats(t, ocSess, "SELECT COUNT(*) FROM big")
	if len(got) != 1 || got[0][0].Int64Val() != 60_000 {
		t.Fatalf("post-close query broken: %v", got)
	}
	_ = qs
}
