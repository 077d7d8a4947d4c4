package bench

import (
	"errors"
	"testing"
	"time"

	"indexeddf"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []time.Duration
		want time.Duration
	}{
		{[]time.Duration{30, 10, 20}, 20},
		{[]time.Duration{7}, 7},
		{[]time.Duration{40, 10, 30, 20}, 25},
		{[]time.Duration{50, 10}, 30},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestMeasureRunsWarmupPlusIters pins the trial count: one untimed
// warm-up, then iters timed trials, each after its Setup.
func TestMeasureRunsWarmupPlusIters(t *testing.T) {
	const iters = 5
	var setups, rows, runs int
	rowsOnly := Arm{Name: "a", Rows: func() ([]indexeddf.Row, error) { rows++; return nil, nil }}
	if _, err := measure(rowsOnly, iters, 1); err != nil {
		t.Fatal(err)
	}
	if rows != iters+1 {
		t.Fatalf("Rows ran %d times, want %d", rows, iters+1)
	}

	rows = 0
	withRun := Arm{Name: "b",
		Setup: func() error { setups++; return nil },
		Rows:  func() ([]indexeddf.Row, error) { rows++; return nil, nil },
		Run:   func() error { runs++; return nil },
	}
	if _, err := measure(withRun, iters, 1); err != nil {
		t.Fatal(err)
	}
	if runs != iters+1 || setups != iters+1 || rows != 0 {
		t.Fatalf("runs=%d setups=%d rows=%d, want %d, %d, 0", runs, setups, rows, iters+1, iters+1)
	}

	// A workload adds one cross-check call of Rows per arm.
	rows, runs, setups = 0, 0, 0
	if _, err := (Workload{Arms: []Arm{withRun}}).Measure(iters); err != nil {
		t.Fatal(err)
	}
	if rows != 1 || runs != iters+1 || setups != iters+2 {
		t.Fatalf("runs=%d setups=%d rows=%d, want %d, %d, 1", runs, setups, rows, iters+1, iters+2)
	}

	boom := errors.New("boom")
	failing := Arm{Name: "c", Rows: func() ([]indexeddf.Row, error) { return nil, boom }}
	if _, err := measure(failing, iters, 1); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestMeasureReportsPerCall checks that a trial of Calls operations is
// reported per call, and that Setup's allocations are not counted.
func TestMeasureReportsPerCall(t *testing.T) {
	var sink []byte
	a := Arm{Name: "a",
		Setup: func() error { sink = make([]byte, 8<<20); return nil },
		Run: func() error {
			time.Sleep(4 * time.Millisecond)
			sink = make([]byte, 1<<20)
			return nil
		},
	}
	s, err := measure(a, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Wall < time.Millisecond || s.Wall > 4*time.Millisecond {
		t.Fatalf("wall per call = %v, want ~1ms", s.Wall)
	}
	if s.Alloc < 1<<18 || s.Alloc > 1<<19 {
		t.Fatalf("alloc per call = %d, want ~%d", s.Alloc, 1<<18)
	}
	_ = sink
}

func TestSameRows(t *testing.T) {
	rows := func() []indexeddf.Row {
		return []indexeddf.Row{
			indexeddf.R(int64(1), "a", 0.5),
			indexeddf.R(int64(2), "b", 1.0/3),
			indexeddf.R(int64(3), "c", 2.0),
		}
	}
	want := rows()
	if err := SameRows(want, rows(), true); err != nil {
		t.Fatalf("identical rows: %v", err)
	}

	swapped := rows()
	swapped[0], swapped[2] = swapped[2], swapped[0]
	if err := SameRows(want, swapped, false); err != nil {
		t.Fatalf("reordered rows as multiset: %v", err)
	}
	if err := SameRows(want, swapped, true); err == nil {
		t.Fatal("reordered rows passed an ordered check")
	}

	// Float sums that differ in the last bits still match.
	summed := rows()
	summed[1][2] = indexeddf.V(1.0 / 3 * (1 + 1e-12))
	if err := SameRows(want, summed, true); err != nil {
		t.Fatalf("float within tolerance: %v", err)
	}

	// One changed value in one row fails, in every column and mode.
	for col, v := range []indexeddf.Value{indexeddf.V(int64(9)), indexeddf.V("z"), indexeddf.V(1.0/3 + 1e-6)} {
		for _, ordered := range []bool{true, false} {
			changed := rows()
			changed[1][col] = v
			if err := SameRows(want, changed, ordered); err == nil {
				t.Errorf("column %d changed (ordered=%v) passed", col, ordered)
			}
		}
	}
	if err := SameRows(want, rows()[:2], false); err == nil {
		t.Fatal("missing row passed")
	}
}

// TestWorkloadRejectsDisagreeingArms checks the cross-check runs before
// any timing: arms whose results differ in one value are never measured.
func TestWorkloadRejectsDisagreeingArms(t *testing.T) {
	timed := 0
	arm := func(name string, v int64) Arm {
		return Arm{Name: name,
			Rows: func() ([]indexeddf.Row, error) {
				return []indexeddf.Row{indexeddf.R(int64(1), int64(10)), indexeddf.R(int64(2), v)}, nil
			},
			Run: func() error { timed++; return nil },
		}
	}
	w := Workload{Name: "w", Arms: []Arm{arm("a", 20), arm("b", 21)}}
	if _, err := w.Measure(3); err == nil {
		t.Fatal("disagreeing arms were measured")
	}
	if timed != 0 {
		t.Fatalf("%d trials ran before the cross-check failed", timed)
	}
	w.Arms[1] = arm("b", 20)
	r, err := w.Measure(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows != 2 || len(r.Samples) != 2 {
		t.Fatalf("result = %+v", r)
	}
}
