package indexeddf

import "testing"

// TestShortReadPlanningAllocs guards the fixed planning cost of a short
// read: compiling an SQ1-shaped plan (an equality filter on an indexed
// relation, then a column selection) must stay within a fixed number of
// allocations, so per-query work such as rendering plans in the
// optimizer's fixpoint loop or re-deriving schemas and statistics fails
// here before it shows up as read latency.
func TestShortReadPlanningAllocs(t *testing.T) {
	s, person, _ := newTestSession(t)
	idx, err := person.CreateIndexOn("id")
	if err != nil {
		t.Fatal(err)
	}
	df := idx.Filter(Eq(Col("id"), Lit(int64(42)))).SelectCols("name", "city")
	if rows, err := df.Collect(); err != nil || len(rows) != 1 {
		t.Fatalf("SQ1-shaped read: %d rows, err %v", len(rows), err)
	}
	var compileErr error
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.compile(df.node); err != nil {
			compileErr = err
		}
	})
	if compileErr != nil {
		t.Fatal(compileErr)
	}
	t.Logf("compile: %.0f allocs", allocs)
	const ceiling = 61 // 1.5x the 41 measured with go1.24
	if allocs > ceiling {
		t.Fatalf("compiling an SQ1-shaped plan allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}
