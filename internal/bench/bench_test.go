package bench

import (
	"strings"
	"testing"

	"indexeddf"
	"indexeddf/internal/snb"
)

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv(EnvConfig{ScaleFactor: 0.05, Seed: 2, TablePartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEnvLoadsBothEngines(t *testing.T) {
	e := tinyEnv(t)
	if e.Vanilla.Indexed || !e.Indexed.Indexed {
		t.Fatal("engine flags wrong")
	}
	if len(e.Params["person"]) == 0 || len(e.Params["message"]) == 0 {
		t.Fatalf("params empty: %v", e.Params)
	}
	vc, err := e.Vanilla.Knows.Count()
	if err != nil {
		t.Fatal(err)
	}
	ic, err := e.Indexed.KnowsByP1.Count()
	if err != nil {
		t.Fatal(err)
	}
	if vc != ic || vc == 0 {
		t.Fatalf("row counts differ: %d vs %d", vc, ic)
	}
}

// TestCompareEnforcesResultAgreement is the harness's own safety property:
// a measurement is only produced when both engines return the same rows,
// so the published tables cannot compare unequal work.
func TestCompareEnforcesResultAgreement(t *testing.T) {
	e := tinyEnv(t)
	ws := Compare(e, Figure2Ops(e))
	var names []string
	for _, w := range ws {
		names = append(names, w.Name)
		r, err := w.Measure(1)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows == 0 {
			t.Fatalf("%s: no result rows", w.Name)
		}
		for i, s := range r.Samples {
			if s.Wall <= 0 {
				t.Fatalf("%s/%s: zero timing", w.Name, w.Arms[i].Name)
			}
		}
	}
	if got, want := strings.Join(names, ","), "Join,Filter,EqualityFilter,Aggregation,Projection,Scan"; got != want {
		t.Fatalf("figure 2 ops = %s, want %s", got, want)
	}

	// An op whose indexed result differs in one value is refused.
	skewed := Op{Name: "Skewed", Run: func(g *snb.Graph) ([]indexeddf.Row, error) {
		rows, err := Figure2Ops(e)[5].Run(g)
		if err != nil || !g.Indexed {
			return rows, err
		}
		rows[0] = rows[0].Clone()
		rows[0][0] = indexeddf.V(rows[0][0].Int64Val() + 1)
		return rows, nil
	}}
	if _, err := Compare(e, []Op{skewed})[0].Measure(1); err == nil {
		t.Fatal("engines returning different rows were measured")
	}
}

func TestFigure3OpsRun(t *testing.T) {
	e := tinyEnv(t)
	ops := Figure3Ops(e)
	if len(ops) != 7 {
		t.Fatalf("ops = %d", len(ops))
	}
	for _, op := range ops {
		vr, err := op.Run(e.Vanilla)
		if err != nil {
			t.Fatalf("%s vanilla: %v", op.Name, err)
		}
		ir, err := op.Run(e.Indexed)
		if err != nil {
			t.Fatalf("%s indexed: %v", op.Name, err)
		}
		if err := SameRows(vr, ir, op.Ordered); err != nil {
			t.Fatalf("%s: %v", op.Name, err)
		}
	}
}

func TestMemoryReport(t *testing.T) {
	e := tinyEnv(t)
	r := Memory(e)
	if r.ColumnarBytes <= 0 || r.DataBytes <= 0 || r.IndexBytes <= 0 {
		t.Fatalf("memory report: %+v", r)
	}
	if r.OverheadPerCopy <= 0 {
		t.Fatalf("overhead ratio: %+v", r)
	}
}
