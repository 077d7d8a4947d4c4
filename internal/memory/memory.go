// Package memory implements hierarchical memory accounting for query
// execution: one engine-level Pool bounds what every in-flight query may
// hold in aggregate, and each query charges its operator state (aggregate
// slabs, sort run buffers, shuffle outputs, cursor slot buffers) against a
// per-query Tracker drawn from the pool. An operator that would push its
// query over either budget fails fast with a structured ErrMemoryExceeded
// naming the operator and the query — the query errors cleanly while
// concurrent under-budget queries on the same engine proceed untouched.
//
// Accounting is an estimate, deliberately conservative: operators charge
// the bytes they buffer (batches, row slices, hash-table slabs) and the
// tracker returns everything to the pool when the query finishes, so a
// long-lived session's pool usage returns to near zero between queries.
// Trackers draw pool bytes in quanta to keep the hot Reserve path off the
// shared atomics.
package memory

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// ErrMemoryExceeded is the sentinel every budget failure matches with
// errors.Is; the concrete error is a *LimitError naming the operator,
// query and scope.
var ErrMemoryExceeded = errors.New("memory budget exceeded")

// LimitError is a structured memory-budget failure.
type LimitError struct {
	// Query names the query charged (the session's q<N> id).
	Query string
	// Operator names the operator whose reservation failed ("VecHashAgg",
	// "shuffle write", "admission", ...).
	Operator string
	// Scope is "query" when the per-query limit tripped, "engine" when the
	// shared pool was exhausted.
	Scope string
	// Requested/Used/Limit describe the failed reservation in bytes.
	Requested, Used, Limit int64
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("memory: %s limit exceeded: query %s operator %s requested %d bytes (used %d of %d)",
		e.Scope, e.Query, e.Operator, e.Requested, e.Used, e.Limit)
}

// Is matches ErrMemoryExceeded.
func (e *LimitError) Is(target error) bool { return target == ErrMemoryExceeded }

// quantum is the granularity trackers draw from the pool: coarse enough
// that per-batch reservations rarely touch the shared pool atomics, fine
// enough that a 4-task query cannot strand much budget.
const quantum = 1 << 20 // 1 MiB

// Pool is the engine-level budget shared by every query. A zero limit
// means unlimited (accounting still runs, nothing ever fails).
type Pool struct {
	limit   int64
	used    atomic.Int64
	active  atomic.Int64 // live trackers (admission/observability)
	queryID atomic.Int64
}

// NewPool builds a pool bounded at limit bytes (<=0 = unlimited).
func NewPool(limit int64) *Pool {
	if limit < 0 {
		limit = 0
	}
	return &Pool{limit: limit}
}

// Limit returns the pool's byte limit (0 = unlimited).
func (p *Pool) Limit() int64 {
	if p == nil {
		return 0
	}
	return p.limit
}

// Used returns the bytes currently drawn from the pool.
func (p *Pool) Used() int64 {
	if p == nil {
		return 0
	}
	return p.used.Load()
}

// Active returns the number of live trackers.
func (p *Pool) Active() int64 {
	if p == nil {
		return 0
	}
	return p.active.Load()
}

// reserve draws n bytes from the pool, failing with a *LimitError (engine
// scope) when the limit would be exceeded.
func (p *Pool) reserve(query, op string, n int64) error {
	for {
		cur := p.used.Load()
		if p.limit > 0 && cur+n > p.limit {
			return &LimitError{Query: query, Operator: op, Scope: "engine",
				Requested: n, Used: cur, Limit: p.limit}
		}
		if p.used.CompareAndSwap(cur, cur+n) {
			return nil
		}
	}
}

// release returns n bytes to the pool.
func (p *Pool) release(n int64) {
	if n > 0 {
		p.used.Add(-n)
	}
}

// ReserveBytes draws n bytes directly from the pool under the given
// owner/operator labels — for long-lived engine state (the plan cache)
// that belongs to no single query. Fails with an engine-scope *LimitError
// when the pool is exhausted.
func (p *Pool) ReserveBytes(owner, op string, n int64) error {
	if p == nil || n <= 0 {
		return nil
	}
	return p.reserve(owner, op, n)
}

// ReleaseBytes returns bytes taken with ReserveBytes.
func (p *Pool) ReleaseBytes(n int64) {
	if p == nil {
		return
	}
	p.release(n)
}

// Admit is the engine's admission check: a new query is admitted only when
// the pool can still hand out one tracker quantum. An engine saturated by
// running queries rejects new work fast — with a structured error the
// caller can surface — instead of letting it start and OOM everything.
func (p *Pool) Admit(query string) error {
	if p == nil || p.limit <= 0 {
		return nil
	}
	if used := p.used.Load(); used+quantum > p.limit {
		return &LimitError{Query: query, Operator: "admission", Scope: "engine",
			Requested: quantum, Used: used, Limit: p.limit}
	}
	return nil
}

// NextQueryID hands out a session-unique query label ("q1", "q2", ...).
func (p *Pool) NextQueryID() string {
	if p == nil {
		return "q0"
	}
	return "q" + strconv.FormatInt(p.queryID.Add(1), 10)
}

// NewTracker starts per-query accounting against the pool. limit bounds
// the single query (<=0 = only the pool bounds it). A nil pool returns a
// nil tracker, on which every method is a no-op — callers never branch.
func (p *Pool) NewTracker(query string, limit int64) *Tracker {
	if p == nil {
		return nil
	}
	p.active.Add(1)
	return &Tracker{pool: p, query: query, limit: limit}
}

// Tracker is one query's memory account. Safe for concurrent use by the
// query's partition tasks. All methods are nil-receiver safe (no-ops), so
// execution paths without accounting run unchanged.
type Tracker struct {
	pool  *Pool
	query string
	limit int64

	mu      sync.Mutex
	used    int64 // bytes charged by operators
	granted int64 // bytes currently drawn from the pool (quantized >= used)
	peak    int64
	closed  bool
	closers []func()    // resource cleanups (spill run files) run by Close
	valve   func() bool // pressure valve tried before a Reserve fails
}

// SetValve registers f as the tracker's pressure valve: when a Reserve
// would otherwise fail, f is invoked — outside the tracker's lock — to
// free charged memory (the spill fabric evicts one of this query's sealed
// resident runs to disk), and the reservation retries. f returns false
// when nothing more can be freed, which lets the original error surface.
func (t *Tracker) SetValve(f func() bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.valve = f
	t.mu.Unlock()
}

// Query returns the tracker's query label.
func (t *Tracker) Query() string {
	if t == nil {
		return ""
	}
	return t.query
}

// Reserve charges n bytes to the query under the given operator name. It
// fails with *LimitError when the query's own limit or the engine pool
// would be exceeded; on failure nothing is charged. A registered pressure
// valve is tried (and the reservation retried) before failure surfaces,
// so any operator's charge can push the query's cold state out of core.
func (t *Tracker) Reserve(op string, n int64) error {
	if t == nil || n <= 0 {
		return nil
	}
	for {
		err, valve := t.tryReserve(op, n)
		if err == nil || valve == nil {
			return err
		}
		// Each successful valve call freed real bytes (one run evicted),
		// so this loop terminates: either the reservation fits or the
		// valve runs out of victims.
		if !valve() {
			return err
		}
	}
}

// tryReserve is one locked reservation attempt; on failure it returns the
// tracker's valve so Reserve can try freeing memory outside the lock.
func (t *Tracker) tryReserve(op string, n int64) (error, func() bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, nil // query already tore down; its tasks are unwinding
	}
	if t.limit > 0 && t.used+n > t.limit {
		return &LimitError{Query: t.query, Operator: op, Scope: "query",
			Requested: n, Used: t.used, Limit: t.limit}, t.valve
	}
	if t.used+n > t.granted {
		// Draw from the pool in quanta so hot per-batch reservations stay
		// on the tracker's own lock.
		need := t.used + n - t.granted
		if need < quantum {
			need = quantum
		}
		if err := t.pool.reserve(t.query, op, need); err != nil {
			return err, t.valve
		}
		t.granted += need
	}
	t.used += n
	if t.used > t.peak {
		t.peak = t.used
	}
	return nil, nil
}

// Grow is Reserve under its incremental name (operators growing an
// existing buffer).
func (t *Tracker) Grow(op string, n int64) error { return t.Reserve(op, n) }

// Release returns n bytes to the query's account. Granted pool bytes are
// retained until Close (queries are short-lived; returning slack per batch
// would put every release on the pool atomics).
func (t *Tracker) Release(n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.used -= n
	if t.used < 0 {
		t.used = 0
	}
}

// Used returns the bytes currently charged to the query.
func (t *Tracker) Used() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.used
}

// Peak returns the high-water mark of the query's charges.
func (t *Tracker) Peak() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// AddCloser registers f to run when the query's accounting closes — the
// teardown backstop for resources whose lifetime is the query's (spill run
// files, open run readers). If the tracker is already closed, f runs
// immediately. Nil-receiver safe: without a tracker there is no budget, so
// budget-driven resources are never created.
func (t *Tracker) AddCloser(f func()) {
	if t == nil || f == nil {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		f()
		return
	}
	t.closers = append(t.closers, f)
	t.mu.Unlock()
}

// Close ends the query's accounting, running registered closers and
// returning everything to the pool. Idempotent; late Release/Reserve calls
// from unwinding tasks are no-ops.
func (t *Tracker) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	granted := t.granted
	closers := t.closers
	t.used, t.granted, t.closers = 0, 0, nil
	t.mu.Unlock()
	for _, f := range closers {
		f()
	}
	t.pool.release(granted)
	t.pool.active.Add(-1)
}

// ---------------------------------------------------------------------------
// Context plumbing: the tracker rides the query's context.Context through
// the scheduler into partition tasks.

type ctxKey struct{}

// WithTracker attaches t to ctx (nil t returns ctx unchanged).
func WithTracker(ctx context.Context, t *Tracker) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's tracker, or nil (a no-op tracker).
func FromContext(ctx context.Context) *Tracker {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Tracker)
	return t
}
