package memory

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestTrackerQueryLimit(t *testing.T) {
	p := NewPool(0)
	tr := p.NewTracker("q1", 1000)
	if err := tr.Reserve("op", 600); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	err := tr.Reserve("VecHashAgg", 500)
	if err == nil {
		t.Fatal("expected query-limit failure")
	}
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("error %v does not match ErrMemoryExceeded", err)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("error %T is not *LimitError", err)
	}
	if le.Operator != "VecHashAgg" || le.Query != "q1" || le.Scope != "query" {
		t.Fatalf("unexpected fields: %+v", le)
	}
	if !strings.Contains(err.Error(), "VecHashAgg") || !strings.Contains(err.Error(), "q1") {
		t.Fatalf("error text should name operator and query: %v", err)
	}
	// A failed reservation charges nothing.
	if got := tr.Used(); got != 600 {
		t.Fatalf("used = %d, want 600", got)
	}
	// Release opens room again.
	tr.Release(400)
	if err := tr.Reserve("op", 500); err != nil {
		t.Fatalf("reserve after release: %v", err)
	}
	tr.Close()
}

func TestPoolLimitAcrossTrackers(t *testing.T) {
	p := NewPool(3 * quantum)
	a := p.NewTracker("q1", 0)
	b := p.NewTracker("q2", 0)
	if err := a.Reserve("op", 2*quantum); err != nil {
		t.Fatalf("a: %v", err)
	}
	// a holds 2 quanta; b can draw the third...
	if err := b.Reserve("op", quantum/2); err != nil {
		t.Fatalf("b: %v", err)
	}
	// ...but not a fourth.
	err := b.Reserve("big", 2*quantum)
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("expected engine-scope failure, got %v", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.Scope != "engine" {
		t.Fatalf("want engine scope, got %v", err)
	}
	// Closing a returns its grant; b proceeds.
	a.Close()
	if err := b.Reserve("big", 2*quantum); err != nil {
		t.Fatalf("b after a.Close: %v", err)
	}
	b.Close()
	if got := p.Used(); got != 0 {
		t.Fatalf("pool used after closes = %d, want 0", got)
	}
	if got := p.Active(); got != 0 {
		t.Fatalf("active = %d, want 0", got)
	}
}

func TestAdmission(t *testing.T) {
	p := NewPool(2 * quantum)
	if err := p.Admit("q1"); err != nil {
		t.Fatalf("empty pool should admit: %v", err)
	}
	tr := p.NewTracker("q1", 0)
	if err := tr.Reserve("op", 2*quantum); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	err := p.Admit("q2")
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("saturated pool should reject admission, got %v", err)
	}
	tr.Close()
	if err := p.Admit("q3"); err != nil {
		t.Fatalf("drained pool should admit again: %v", err)
	}
}

func TestNilSafety(t *testing.T) {
	var p *Pool
	var tr *Tracker
	if err := p.Admit("q"); err != nil {
		t.Fatal(err)
	}
	if tr = p.NewTracker("q", 100); tr != nil {
		t.Fatal("nil pool should return nil tracker")
	}
	if err := tr.Reserve("op", 1<<40); err != nil {
		t.Fatal(err)
	}
	if err := tr.Grow("op", 1); err != nil {
		t.Fatal(err)
	}
	tr.Release(5)
	tr.Close()
	if tr.Used() != 0 || tr.Peak() != 0 || p.Used() != 0 || p.Limit() != 0 {
		t.Fatal("nil accessors should be zero")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext on bare ctx = %v", got)
	}
	if ctx := WithTracker(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("WithTracker(nil) should be transparent")
	}
}

func TestContextRoundTrip(t *testing.T) {
	p := NewPool(0)
	tr := p.NewTracker("q9", 0)
	ctx := WithTracker(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatal("tracker did not round-trip through context")
	}
	tr.Close()
}

func TestConcurrentReserveRelease(t *testing.T) {
	p := NewPool(0)
	tr := p.NewTracker("q1", 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := tr.Reserve("op", 128); err != nil {
					t.Error(err)
					return
				}
				tr.Release(128)
			}
		}()
	}
	wg.Wait()
	if got := tr.Used(); got != 0 {
		t.Fatalf("used = %d, want 0", got)
	}
	tr.Close()
	if got := p.Used(); got != 0 {
		t.Fatalf("pool used = %d, want 0", got)
	}
}

func TestLateCallsAfterClose(t *testing.T) {
	p := NewPool(quantum)
	tr := p.NewTracker("q1", 0)
	if err := tr.Reserve("op", 100); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	// Unwinding tasks may still touch the tracker; nothing may leak.
	if err := tr.Reserve("op", 100); err != nil {
		t.Fatal(err)
	}
	tr.Release(100)
	tr.Close()
	if got := p.Used(); got != 0 {
		t.Fatalf("pool used = %d, want 0", got)
	}
}

// TestNextQueryID pins the query label format: "q" then a session-unique
// counter starting at 1, and "q0" from a nil pool.
func TestNextQueryID(t *testing.T) {
	p := NewPool(0)
	for _, want := range []string{"q1", "q2", "q3"} {
		if got := p.NextQueryID(); got != want {
			t.Fatalf("NextQueryID = %q, want %q", got, want)
		}
	}
	var nilPool *Pool
	if got := nilPool.NextQueryID(); got != "q0" {
		t.Fatalf("nil pool NextQueryID = %q, want q0", got)
	}
}
