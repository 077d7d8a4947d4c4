package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"indexeddf"
	"indexeddf/internal/snb"
	"indexeddf/internal/sqltypes"
)

// tinyConfig is a run at sf 0.05 that lasts a fraction of a second.
func tinyConfig(t *testing.T, workload string, trace bool) runConfig {
	dir := t.TempDir()
	return runConfig{workload: workload, seed: 3, duration: 300 * time.Millisecond, trace: trace,
		sf: 0.05, setups: 2, traceOut: filepath.Join(dir, "trace.json"), spillDir: filepath.Join(dir, "spill")}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					kind, i, want[i].name, want[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, workloads[i], w.Name)
		}
	}
}

// TestTinyRuns runs every workload untraced and traced at a tiny scale and
// checks each run is correct and emits every metric with its unit.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w, trace)
			o, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !o.res.Correct || o.res.Failed != 0 || o.res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w, trace, o.res.Correct, o.res.Attempted, o.res.Failed, o.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(o.res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(o.res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := o.res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if trace {
				checkTraceFile(t, cfg.traceOut)
			}
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args struct{ ID int64 }
		}
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
	for _, ev := range tf.TraceEvents {
		if ev.Name == "" || ev.Ph != "X" || ev.Args.ID == 0 {
			t.Fatalf("malformed trace event %+v", ev)
		}
	}
}

// TestReadCheckRejectsCorruption gives every person a second, wrong version
// in the indexed graph only; the replayed vanilla oracle must notice.
func TestReadCheckRejectsCorruption(t *testing.T) {
	e, err := setupReads(0.05, 3, indexeddf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.sess.Close()
	if n, errs := checkReads(e.d, e.g, nil, 3); n == 0 || len(errs) != 0 {
		t.Fatalf("clean graph: compared %d, mismatches %v", n, errs)
	}
	bad := make([]sqltypes.Row, len(e.d.Persons))
	for i, p := range e.d.Persons {
		bad[i] = p.Clone()
		bad[i][1] = sqltypes.NewString("Corrupt")
	}
	if _, err := e.g.PersonByID.AppendRowsSlice(bad); err != nil {
		t.Fatal(err)
	}
	if _, errs := checkReads(e.d, e.g, nil, 3); len(errs) == 0 {
		t.Fatal("read check accepted a corrupted indexed graph")
	}
}

// TestSuiteCheckRejectsCorruption appends a stray row to the indexed copy
// of knows; the vanilla twin, the dataset counts and the unconstrained
// session must all disagree with it.
func TestSuiteCheckRejectsCorruption(t *testing.T) {
	cfg := indexeddf.Config{BroadcastThreshold: 1}
	e, err := loadAnalytic(snb.Generate(snb.Config{ScaleFactor: 0.05, Seed: 3}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.sess.Close()
	ref, err := loadAnalytic(e.d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.sess.Close()
	suite, err := suiteFor(e)
	if err != nil {
		t.Fatal(err)
	}
	refSuite, err := suiteFor(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := runSuiteOnce(ref.sess, refSuite)
	if _, errs := checkSuite(suite, runSuiteOnce(e.sess, suite), want, topCreators(e.d)); len(errs) != 0 {
		t.Fatalf("clean session: %v", errs)
	}
	stray := e.d.Knows[0].Clone()
	stray[1] = sqltypes.NewInt64(stray[1].Int64Val() + 1)
	if _, err := e.indexed[0].AppendRowsSlice([]sqltypes.Row{stray}); err != nil {
		t.Fatal(err)
	}
	_, errs := checkSuite(suite, runSuiteOnce(e.sess, suite), want, topCreators(e.d))
	if len(errs) == 0 {
		t.Fatal("suite check accepted a corrupted indexed copy")
	}
	// A result corrupted after the fact, with the data intact, also fails.
	got := runSuiteOnce(ref.sess, refSuite)
	r := got["TopCreators"]
	r.topRows = append([]sqltypes.Row{{sqltypes.NewInt64(-1), sqltypes.NewInt64(1)}}, r.topRows[1:]...)
	got["TopCreators"] = r
	if _, errs := checkSuite(refSuite, got, want, topCreators(e.d)); len(errs) == 0 {
		t.Fatal("suite check accepted a corrupted Top-N result")
	}
}
