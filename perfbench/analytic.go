package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"indexeddf"
	"indexeddf/internal/snb"
	"indexeddf/internal/sqltypes"
)

// analyticBudget is the per-query memory limit of the analytic session,
// sized at sf 16 so the full ORDER BY and the two-key GROUP BY spill while
// every other suite statement fits (the vanilla shuffle join peaks near
// 21 MiB).
const analyticBudget = 26 << 20

// sqlQuery is one statement of the analytic suite.
type sqlQuery struct {
	name string
	sql  string
	// baseRows is the number of base-table rows the statement reads.
	baseRows int64
	// wantRows is the result cardinality computed from the dataset.
	wantRows int64
	// pair names the statement's twin on the other table flavour
	// (vanilla knows vs its indexed copy); both must return equal rows.
	pair string
	// spills says whether the statement must spill under analyticBudget.
	spills bool
}

// analyticSuite builds the fixed SQL suite from the dataset: Figure 2's six
// operators on the vanilla cached knows and on its indexed copy, a Top-N
// GROUP BY over comment, a full ORDER BY of knows and a two-key GROUP BY.
func analyticSuite(d *snb.Dataset, knowsIdx, personIdx string) []sqlQuery {
	eqKey := d.Persons[len(d.Persons)/3][0].Int64Val()
	dates := make([]int64, len(d.Knows))
	for i, k := range d.Knows {
		dates[i] = k[2].Int64Val()
	}
	sort.Slice(dates, func(i, j int) bool { return dates[i] < dates[j] })
	mid := dates[len(dates)/2] // the Filter keeps about half of knows
	var eqRows, filterRows int64
	groups := map[int64]bool{}
	persons := map[int64]bool{}
	for _, p := range d.Persons {
		persons[p[0].Int64Val()] = true
	}
	var joinRows int64
	for _, k := range d.Knows {
		p1 := k[0].Int64Val()
		if p1 == eqKey {
			eqRows++
		}
		if k[2].Int64Val() > mid {
			filterRows++
		}
		if persons[p1] {
			joinRows++
		}
		groups[p1] = true
	}
	nk, np, nc := int64(len(d.Knows)), int64(len(d.Persons)), int64(len(d.Comments))
	topN := int64(10)
	if creators := len(commentCounts(d)); int64(creators) < topN {
		topN = int64(creators)
	}

	var suite []sqlQuery
	for _, t := range []struct{ tag, knows, person string }{
		{"vanilla", "knows", "person"}, {"indexed", knowsIdx, personIdx},
	} {
		other := "indexed"
		if t.tag == "indexed" {
			other = "vanilla"
		}
		add := func(op, sql string, base, want int64) {
			suite = append(suite, sqlQuery{name: op + "." + t.tag, sql: sql, baseRows: base,
				wantRows: want, pair: op + "." + other})
		}
		add("Join", fmt.Sprintf("SELECT k.person1Id, k.person2Id, p.firstName FROM %s k JOIN %s p ON k.person1Id = p.id",
			t.knows, t.person), nk+np, joinRows)
		add("Filter", fmt.Sprintf("SELECT * FROM %s WHERE creationDate > CAST(%d AS TIMESTAMP)", t.knows, mid), nk, filterRows)
		add("EqualityFilter", fmt.Sprintf("SELECT * FROM %s WHERE person1Id = %d", t.knows, eqKey), nk, eqRows)
		add("Aggregation", fmt.Sprintf("SELECT person1Id, COUNT(*) FROM %s GROUP BY person1Id", t.knows), nk, int64(len(groups)))
		add("Projection", fmt.Sprintf("SELECT person2Id FROM %s", t.knows), nk, nk)
		add("Scan", fmt.Sprintf("SELECT * FROM %s", t.knows), nk, nk)
	}
	suite = append(suite,
		sqlQuery{name: "TopCreators", baseRows: nc, wantRows: topN,
			sql: "SELECT creatorId, COUNT(*) AS cnt FROM comment GROUP BY creatorId ORDER BY cnt DESC, creatorId LIMIT 10"},
		sqlQuery{name: "SortKnows", baseRows: nk, wantRows: nk, spills: true,
			sql: "SELECT * FROM knows ORDER BY person1Id, person2Id, creationDate"},
		// The group table holds one group per edge; the Top-N keeps the
		// result small, since the cursor buffers undelivered partitions'
		// rows against the same budget.
		sqlQuery{name: "GroupPairs", baseRows: nk, wantRows: min(10, nk), spills: true,
			sql: "SELECT person1Id, person2Id, COUNT(*) AS n FROM knows GROUP BY person1Id, person2Id " +
				"ORDER BY n DESC, person1Id, person2Id LIMIT 10"},
	)
	return suite
}

// commentCounts counts comments per creator straight from the dataset.
func commentCounts(d *snb.Dataset) map[int64]int64 {
	out := map[int64]int64{}
	for _, c := range d.Comments {
		out[c[1].Int64Val()]++
	}
	return out
}

// topCreators is the reference answer of the TopCreators statement.
func topCreators(d *snb.Dataset) []sqltypes.Row {
	counts := commentCounts(d)
	ids := make([]int64, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if counts[ids[i]] != counts[ids[j]] {
			return counts[ids[i]] > counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > 10 {
		ids = ids[:10]
	}
	out := make([]sqltypes.Row, len(ids))
	for i, id := range ids {
		out[i] = sqltypes.Row{sqltypes.NewInt64(id), sqltypes.NewInt64(counts[id])}
	}
	return out
}

// analyticStats is the client's record of one measured window.
type analyticStats struct {
	lat      samples // ms per statement, in issue order
	passMs   samples // ms per statement of each complete suite pass
	passes   int     // complete suite passes
	passWall time.Duration
	rowsRead int64 // base rows read by the complete passes
	queries  int64
	failures
}

// runStatement executes one statement through Session.Query and drains the
// cursor, returning the rows delivered (and the rows themselves when keep).
func runStatement(sess *indexeddf.Session, sql string, keep bool) (int64, []sqltypes.Row, *indexeddf.Rows, error) {
	rows, err := sess.Query(context.Background(), sql)
	if err != nil {
		return 0, nil, nil, err
	}
	defer rows.Close()
	var n int64
	var out []sqltypes.Row
	for rows.Next() {
		n++
		if keep {
			out = append(out, rows.Row().Clone())
		}
	}
	return n, out, rows, rows.Err()
}

// runAnalytic is the closed-loop analytic client: it runs the whole suite,
// pass after pass, until stop is closed. Each pass takes the statements in
// a new seeded order: in a fixed order the garbage collector, which runs
// after a fixed amount of allocation, lands on the same statements every
// pass, and which ones depends on the dataset. Every statement's row count
// is checked against the dataset as it runs.
func runAnalytic(sess *indexeddf.Session, suite []sqlQuery, seed int64, stop <-chan struct{}, tr *tracer) *analyticStats {
	st := &analyticStats{}
	rng := rand.New(rand.NewSource(seed))
	order := append([]sqlQuery(nil), suite...)
	for {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		passStart := time.Now()
		var passRows int64
		for _, q := range order {
			select {
			case <-stop:
				return st
			default:
			}
			var id int64
			var start time.Time
			if tr != nil {
				id, start = tr.begin()
			}
			t := time.Now()
			n, _, _, err := runStatement(sess, q.sql, false)
			ms := float64(time.Since(t)) / float64(time.Millisecond)
			if tr != nil {
				tr.end(id, q.name, "sql", trackClient, start)
			}
			st.queries++
			switch {
			case err != nil:
				st.fail(fmt.Errorf("%s: %w", q.name, err))
				continue
			case n != q.wantRows:
				st.fail(fmt.Errorf("%s: %d rows, want %d", q.name, n, q.wantRows))
			}
			st.lat.add(ms)
			passRows += q.baseRows
		}
		st.passes++
		st.passWall += time.Since(passStart)
		st.passMs.addDur(time.Since(passStart)/time.Duration(len(suite)), time.Millisecond)
		st.rowsRead += passRows
	}
}

// analyticWindow runs the analytic client for d on its own goroutine.
func analyticWindow(sess *indexeddf.Session, suite []sqlQuery, seed int64, d time.Duration, tr *tracer) *analyticStats {
	stop := make(chan struct{})
	done := make(chan *analyticStats)
	go func() { done <- runAnalytic(sess, suite, seed, stop, tr) }()
	time.Sleep(d)
	close(stop)
	return <-done
}

// suiteResult is one statement's checked outcome.
type suiteResult struct {
	rows    int64
	sum     uint64
	spilled bool
	topRows []sqltypes.Row // TopCreators only
	err     error
}

// runSuiteOnce runs every statement once outside the timed region and
// records its row count, order-insensitive checksum and whether it spilled.
func runSuiteOnce(sess *indexeddf.Session, suite []sqlQuery) map[string]suiteResult {
	out := make(map[string]suiteResult, len(suite))
	for _, q := range suite {
		n, rows, cur, err := runStatement(sess, q.sql, true)
		r := suiteResult{rows: n, sum: checksum(rows), err: err}
		if cur != nil && cur.Stats() != nil {
			r.spilled = cur.Stats().SpillRuns() > 0
		}
		if q.name == "TopCreators" {
			r.topRows = rows
		}
		out[q.name] = r
	}
	return out
}

// checkSuite compares the budgeted (spilling) run's results with the
// unconstrained run's, each vanilla statement with its indexed twin, every
// row count with the dataset's, and the Top-N rows with the reference
// answer. It returns the statements compared and the mismatches.
func checkSuite(suite []sqlQuery, budgeted, unconstrained map[string]suiteResult, top []sqltypes.Row) (int64, []error) {
	var errs []error
	for _, q := range suite {
		b, u := budgeted[q.name], unconstrained[q.name]
		switch {
		case b.err != nil:
			errs = append(errs, fmt.Errorf("%s (budgeted): %w", q.name, b.err))
			continue
		case u.err != nil:
			errs = append(errs, fmt.Errorf("%s (unconstrained): %w", q.name, u.err))
			continue
		}
		if b.rows != q.wantRows {
			errs = append(errs, fmt.Errorf("%s: %d rows, dataset says %d", q.name, b.rows, q.wantRows))
		}
		if b.rows != u.rows || b.sum != u.sum {
			errs = append(errs, fmt.Errorf("%s: budgeted run (%d rows, sum %x) differs from unconstrained (%d rows, sum %x)",
				q.name, b.rows, b.sum, u.rows, u.sum))
		}
		if q.pair != "" {
			if p := budgeted[q.pair]; p.err == nil && (p.rows != b.rows || p.sum != b.sum) {
				errs = append(errs, fmt.Errorf("%s and %s disagree (%d vs %d rows)", q.name, q.pair, b.rows, p.rows))
			}
		}
		if q.name == "TopCreators" {
			if err := diffRows(top, b.topRows); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", q.name, err))
			}
		}
	}
	return int64(len(suite)), errs
}

// spillShape lists the statements whose spilling differs from the suite's
// design (the last two spill, the rest fit the budget).
func spillShape(suite []sqlQuery, budgeted map[string]suiteResult) []string {
	var off []string
	for _, q := range suite {
		if budgeted[q.name].spilled != q.spills {
			off = append(off, fmt.Sprintf("%s spilled=%v", q.name, budgeted[q.name].spilled))
		}
	}
	return off
}
