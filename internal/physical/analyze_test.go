package physical

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"indexeddf/internal/expr"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
)

var wallSelfRE = regexp.MustCompile(`wall=(\S+) self=(\S+?)[ )]`)

// annotatedWalls parses each annotated EXPLAIN ANALYZE line, top-down,
// into its wall and self durations; lines without actuals are skipped.
func annotatedWalls(t *testing.T, rendered string) (lines []string, wall, self []time.Duration) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(rendered, "\n"), "\n") {
		if !strings.Contains(line, "actual rows=") {
			continue
		}
		m := wallSelfRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("annotated line carries no wall=/self= pair: %q", line)
		}
		w, err := time.ParseDuration(m[1])
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		s, err := time.ParseDuration(m[2])
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		lines, wall, self = append(lines, line), append(wall, w), append(self, s)
	}
	return lines, wall, self
}

// TestAnalyzeSelfTime pins EXPLAIN ANALYZE's self= column: wall minus the
// wall of the nearest instrumented operators below, clamped at 0, so it
// never exceeds wall and equals it on a leaf.
func TestAnalyzeSelfTime(t *testing.T) {
	t.Run("executed", func(t *testing.T) {
		it := indexedCatalogTable(t, 20_000, 100)
		cond := expr.NewCmp(expr.Lt, expr.B(0, sqltypes.Int64, "k"), expr.LitInt64(50))
		proj := NewProject(NewFilter(NewIndexedScan(it, nil, it.Schema()), cond),
			[]expr.Expr{expr.B(0, sqltypes.Int64, "k")},
			sqltypes.NewSchema(sqltypes.Field{Name: "k", Type: sqltypes.Int64}))
		root := NewSort(proj, []SortOrder{{Expr: expr.B(0, sqltypes.Int64, "k")}})

		c := NewExecContext(rdd.NewContext())
		c.Query = obs.NewQueryStats("q1", "", nil)
		out, err := c.RDD.Collect(mustExec(t, c, root))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 10_000 {
			t.Fatalf("rows = %d, want 10000", len(out))
		}
		rendered := c.AnalyzeString(root)
		t.Logf("\n%s", rendered)
		lines, wall, self := annotatedWalls(t, rendered)
		if len(lines) != 4 {
			t.Fatalf("%d annotated operators, want 4:\n%s", len(lines), rendered)
		}
		for i := range lines {
			if self[i] > wall[i] {
				t.Errorf("self %s > wall %s: %q", self[i], wall[i], lines[i])
			}
		}
		leaf := len(lines) - 1
		if !strings.Contains(lines[leaf], "IndexedScan") || self[leaf] != wall[leaf] {
			t.Errorf("leaf self %s != wall %s: %q", self[leaf], wall[leaf], lines[leaf])
		}
	})

	// A blocking operator drains its input inside its own timed build, so
	// its wall= covers the input's and its self= is the build's own time.
	t.Run("blocking", func(t *testing.T) {
		it := indexedCatalogTable(t, 20_000, 1000)
		k := expr.B(0, sqltypes.Int64, "k")
		scan := NewVecIndexedScan(it, nil, it.Schema())
		groups := []expr.Expr{k}
		aggs := []expr.Agg{{Func: expr.CountStarAgg, Name: "cnt"}}
		for _, root := range []Exec{
			NewSort(NewVecFilter(scan, expr.NewCmp(expr.Lt, k, expr.LitInt64(10))), []SortOrder{{Expr: k}}),
			NewVecHashAgg(scan, groups, aggs, AggPartial, PartialSchema(groups, aggs)),
		} {
			c := NewExecContext(rdd.NewContext())
			c.Query = obs.NewQueryStats("q1", "", nil)
			if _, err := c.RDD.Collect(mustExec(t, c, root)); err != nil {
				t.Fatal(err)
			}
			rendered := c.AnalyzeString(root)
			lines, wall, self := annotatedWalls(t, rendered)
			if len(lines) < 2 {
				t.Fatalf("%d annotated operators, want at least 2:\n%s", len(lines), rendered)
			}
			if wall[0] < wall[1] || self[0] <= 0 {
				t.Errorf("%q: wall=%s below its input's %s, or self=%s not positive:\n%s",
					lines[0], wall[0], wall[1], self[0], rendered)
			}
		}
	})

	t.Run("arithmetic", func(t *testing.T) {
		leaf := valuesExec(rowsN(1, 1))
		mid := NewFilter(leaf, expr.Lit(sqltypes.NewBool(true))) // records nothing: looked through
		root := NewProject(mid, []expr.Expr{expr.B(0, sqltypes.Int64, "k")},
			sqltypes.NewSchema(sqltypes.Field{Name: "k", Type: sqltypes.Int64}))
		for _, tc := range []struct {
			rootWall, leafWall, wantSelf time.Duration
		}{
			{5 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond},
			{2 * time.Millisecond, 5 * time.Millisecond, 0}, // sampled child over parent: clamped
		} {
			c := NewExecContext(rdd.NewContext())
			c.Query = obs.NewQueryStats("q1", "", nil)
			c.Stats(root).AddWall(int64(tc.rootWall))
			c.Stats(leaf).AddWall(int64(tc.leafWall))
			rendered := c.AnalyzeString(root)
			lines, wall, self := annotatedWalls(t, rendered)
			if len(lines) != 2 {
				t.Fatalf("%d annotated operators, want 2:\n%s", len(lines), rendered)
			}
			if wall[0] != tc.rootWall || self[0] != tc.wantSelf {
				t.Errorf("root wall=%s self=%s, want %s/%s", wall[0], self[0], tc.rootWall, tc.wantSelf)
			}
			if wall[1] != tc.leafWall || self[1] != tc.leafWall {
				t.Errorf("leaf wall=%s self=%s, want both %s", wall[1], self[1], tc.leafWall)
			}
		}
	})

	t.Run("counters only", func(t *testing.T) {
		c := NewExecContext(rdd.NewContext())
		c.Query = obs.NewQueryCounters("q1", "")
		leaf := valuesExec(rowsN(1, 1))
		if st := c.Stats(leaf); st != nil {
			t.Fatal("a counters-only query handed out an operator collector")
		}
		if got := c.AnalyzeString(leaf); strings.Contains(got, "actual rows=") {
			t.Fatalf("counters-only plan carries actuals: %q", got)
		}
	})
}
