package bench

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"indexeddf"
	"indexeddf/internal/sqltypes"
)

// Arm is one side of a comparison: a workload's work under one engine or
// configuration.
type Arm struct {
	// Name keys the arm in tables and JSON ("batch" → batch_ns).
	Name string
	// Setup, when set, runs untimed before every trial, the cross-check's
	// included; its allocations are not counted.
	Setup func() error
	// Rows does the arm's work once and returns the result rows. The
	// cross-check calls it once; timed trials call it too unless Run is
	// set.
	Rows func() ([]indexeddf.Row, error)
	// Run, when set, is the timed trial in place of Rows: the same work
	// without keeping the rows (a drained cursor) or reading them back (a
	// view refresh).
	Run func() error
}

// Workload is one row of a figure: arms that must return the same rows.
type Workload struct {
	// Name prefixes the workload's JSON keys ("sort" → sort_batch_ns); the
	// empty name adds no prefix.
	Name string
	// Ordered makes the cross-check compare rows in order (the query has
	// an ORDER BY); otherwise results compare as multisets.
	Ordered bool
	// Calls is the number of operations in one trial (0 means 1); wall
	// time and allocations are reported per call.
	Calls int
	// WallOnly reports wall time only: the figure gates no alloc bytes.
	WallOnly bool
	Arms     []Arm
}

// Sample is one arm's measurement, per call.
type Sample struct {
	Wall  time.Duration // median trial wall time
	Alloc int64         // mean heap bytes allocated (runtime TotalAlloc delta)
}

// Result is a measured workload.
type Result struct {
	Rows    int      // result rows per call, from the cross-check
	Samples []Sample // one per arm, in arm order
}

// Measure cross-checks the arms' results against the first arm's, then
// measures each arm in order.
func (w Workload) Measure(iters int) (Result, error) {
	calls := max(w.Calls, 1)
	var want []indexeddf.Row
	for i, a := range w.Arms {
		if err := a.setup(); err != nil {
			return Result{}, fmt.Errorf("workload %q, arm %s: %w", w.Name, a.Name, err)
		}
		got, err := a.Rows()
		if err != nil {
			return Result{}, fmt.Errorf("workload %q, arm %s: %w", w.Name, a.Name, err)
		}
		if i == 0 {
			want = got
		} else if err := SameRows(want, got, w.Ordered); err != nil {
			return Result{}, fmt.Errorf("workload %q: arm %s disagrees with arm %s: %w", w.Name, a.Name, w.Arms[0].Name, err)
		}
	}
	r := Result{Rows: len(want) / calls}
	for _, a := range w.Arms {
		s, err := measure(a, iters, calls)
		if err != nil {
			return Result{}, fmt.Errorf("workload %q, arm %s: %w", w.Name, a.Name, err)
		}
		r.Samples = append(r.Samples, s)
	}
	return r, nil
}

func (a Arm) setup() error {
	if a.Setup == nil {
		return nil
	}
	return a.Setup()
}

// measure runs one untimed warm-up trial, collects garbage, then times
// iters trials.
func measure(a Arm, iters, calls int) (Sample, error) {
	iters = max(iters, 1)
	run := a.Run
	if run == nil {
		run = func() error { _, err := a.Rows(); return err }
	}
	if err := a.setup(); err != nil {
		return Sample{}, err
	}
	if err := run(); err != nil {
		return Sample{}, err
	}
	var ms runtime.MemStats
	totalAlloc := func() int64 {
		runtime.ReadMemStats(&ms)
		return int64(ms.TotalAlloc)
	}
	times := make([]time.Duration, iters)
	runtime.GC()
	var setupAlloc int64
	start := totalAlloc()
	for i := range times {
		if a.Setup != nil {
			before := totalAlloc()
			if err := a.Setup(); err != nil {
				return Sample{}, err
			}
			setupAlloc += totalAlloc() - before
		}
		t0 := time.Now()
		if err := run(); err != nil {
			return Sample{}, err
		}
		times[i] = time.Since(t0)
	}
	alloc := totalAlloc() - start - setupAlloc
	return Sample{
		Wall:  median(times) / time.Duration(calls),
		Alloc: alloc / int64(iters*calls),
	}, nil
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// SameRows reports how got differs from want: row by row when ordered,
// as multisets otherwise. Float64 values match within a relative 1e-9,
// because engines sum in different orders (row and batch AVG, say).
func SameRows(want, got []indexeddf.Row, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if !ordered {
		want, got = sortedRows(want), sortedRows(got)
	}
	for i := range want {
		if !sameRow(want[i], got[i]) {
			return fmt.Errorf("row %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

func sortedRows(rows []indexeddf.Row) []indexeddf.Row {
	s := slices.Clone(rows)
	slices.SortFunc(s, func(a, b indexeddf.Row) int {
		for i := 0; i < len(a) && i < len(b); i++ {
			if c := sqltypes.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return len(a) - len(b)
	})
	return s
}

func sameRow(a, b indexeddf.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		y := b[i]
		if x.T != y.T {
			return false
		}
		switch x.T {
		case sqltypes.Float64:
			if x.F != y.F && math.Abs(x.F-y.F) > 1e-9*math.Max(math.Abs(x.F), math.Abs(y.F)) {
				return false
			}
		case sqltypes.String:
			if x.S != y.S {
				return false
			}
		default:
			if x.I != y.I {
				return false
			}
		}
	}
	return true
}
