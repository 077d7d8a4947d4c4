package indexeddf

import (
	"context"
	"fmt"
	"time"

	"indexeddf/internal/memory"
	"indexeddf/internal/obs"
	"indexeddf/internal/physical"
	"indexeddf/internal/plan"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
)

// Rows is a streaming query cursor in the database/sql style: rows are
// pulled partition-at-a-time from the engine (batch-at-a-time inside
// vectorized subtrees) while the remaining partition tasks execute in the
// background, so the first row is available long before the job finishes
// and a Close mid-stream stops the remaining work.
//
//	rows, err := df.Query(ctx)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var id int64
//	    var name string
//	    if err := rows.Scan(&id, &name); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// A Rows is owned by one goroutine; concurrent queries each get their own
// cursor (the Session is safe for concurrent use).
type Rows struct {
	schema *sqltypes.Schema
	stream *rdd.RowStream
	cancel context.CancelFunc // releases a session-timeout context, if any
	mem    *memory.Tracker    // the query's budget; closed on shutdown
	row    sqltypes.Row
	err    error
	closed bool

	// remaining is the LIMIT-aware row budget (-1 = unlimited). When the
	// plan root is a LIMIT n, the cursor runs the local-limit stage only
	// and truncates here: delivering the n-th row tears the stream down,
	// stopping the partition tasks a gather-based global limit would have
	// launched anyway.
	remaining int64

	// Observability: qs is nil when Config.DisableObservability is set
	// (every recording below then vanishes) and counters-only unless the
	// query is detailed (EXPLAIN ANALYZE, a slow-query hook or a sized
	// trace ring); sess/ec/exec let shutdown settle registry counters and
	// render the annotated plan.
	sess      *Session
	qs        *obs.QueryStats
	ec        *physical.ExecContext
	exec      physical.Exec
	start     time.Time
	delivered int64
	sawRow    bool
}

// Schema returns the result schema.
func (r *Rows) Schema() *sqltypes.Schema { return r.schema }

// Next advances to the next row, reporting whether one is available. It
// returns false at the end of the result set, after Close, and on error —
// check Err to tell the cases apart.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.remaining == 0 {
		r.shutdown() // LIMIT satisfied: stop the remaining partition tasks
		return false
	}
	row, err := r.stream.Next()
	if err != nil {
		r.err = err
		r.shutdown()
		return false
	}
	if row == nil {
		r.shutdown() // exhausted: release tasks and shuffle outputs eagerly
		return false
	}
	if r.remaining > 0 {
		r.remaining--
	}
	r.delivered++
	if !r.sawRow {
		r.sawRow = true
		if r.qs.Detailed() {
			r.qs.Event("first row", -1, time.Since(r.start))
		}
	}
	r.row = row
	return true
}

// Stats returns the query's recorded runtime stats: task counts, shuffle
// bytes, spill, memory peak, rows returned and phase timings. Per-operator
// actuals (Ops) are recorded only when the query is detailed — EXPLAIN
// ANALYZE, an installed slow-query hook or a positive Config.TraceCapacity
// — and are empty otherwise. Nil when the session was built with
// Config.DisableObservability. Totals settle when the cursor closes;
// reading mid-stream sees live (partial) counts.
func (r *Rows) Stats() *obs.QueryStats { return r.qs }

// AnalyzeString renders the physical plan annotated with this execution's
// actuals (EXPLAIN ANALYZE's body) plus a query-level summary footer.
// Operator actuals appear only when the query is detailed (see Stats);
// otherwise the plan renders bare, followed by the footer. Meaningful
// after the cursor is drained or closed; "" when observability is
// disabled.
func (r *Rows) AnalyzeString() string {
	if r.qs == nil {
		return ""
	}
	return r.analyzePlan() + r.qs.String()
}

// analyzePlan renders the annotated operator tree only.
func (r *Rows) analyzePlan() string {
	if r.ec == nil || r.exec == nil {
		return ""
	}
	return r.ec.AnalyzeString(r.exec)
}

// Row returns the current row (valid after a true Next).
func (r *Rows) Row() sqltypes.Row { return r.row }

// Scan copies the current row into dest, one pointer per column. Supported
// destinations: *int, *int32, *int64, *float64, *string, *bool,
// *time.Time, *sqltypes.Value and *any (which receives the native Go
// value, nil for NULL). Values convert with SQL implicit-cast semantics —
// a column that cannot cast to the destination's type (e.g. a
// non-numeric string into *int64) is an error, not a zero value. NULL
// scans as the destination's zero value except into *any and
// *sqltypes.Value.
func (r *Rows) Scan(dest ...any) error {
	if r.row == nil {
		return fmt.Errorf("indexeddf: Scan called without a successful Next")
	}
	if len(dest) != len(r.row) {
		return fmt.Errorf("indexeddf: Scan expects %d destinations, got %d", len(r.row), len(dest))
	}
	for i, d := range dest {
		if err := scanValue(r.row[i], d); err != nil {
			return fmt.Errorf("indexeddf: Scan column %d: %w", i, err)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any: an execution
// error, or the context's error (context.Canceled /
// context.DeadlineExceeded) when the query was cancelled or timed out.
func (r *Rows) Err() error { return r.err }

// Close cancels any remaining partition tasks and releases the query's
// resources. It is idempotent and is called implicitly when the cursor is
// exhausted.
func (r *Rows) Close() error {
	r.shutdown()
	return nil
}

func (r *Rows) shutdown() {
	if r.closed {
		return
	}
	r.closed = true
	r.row = nil
	r.stream.Close()
	// Settle stats before the tracker closes: the memory peak is read off
	// the live tracker.
	if r.sess != nil {
		r.sess.finishQuery(r)
	}
	// Close after the stream: stopped tasks release their charges first,
	// then the tracker returns the query's whole grant to the engine pool.
	r.mem.Close()
	if r.cancel != nil {
		r.cancel()
	}
}

// scanValue converts one engine value into a Go destination pointer,
// casting to the destination's SQL type first so type mismatches surface
// as errors instead of zero values.
func scanValue(v sqltypes.Value, dest any) error {
	cast := func(t sqltypes.Type) (sqltypes.Value, error) {
		c, err := v.Cast(t)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("cannot scan %s into %T: %w", v.T, dest, err)
		}
		return c, nil
	}
	switch d := dest.(type) {
	case *sqltypes.Value:
		*d = v
	case *any:
		*d = nativeValue(v)
	case *int64:
		c, err := cast(sqltypes.Int64)
		if err != nil {
			return err
		}
		*d = c.Int64Val()
	case *int32:
		c, err := cast(sqltypes.Int32)
		if err != nil {
			return err
		}
		*d = int32(c.Int64Val())
	case *int:
		c, err := cast(sqltypes.Int64)
		if err != nil {
			return err
		}
		*d = int(c.Int64Val())
	case *float64:
		c, err := cast(sqltypes.Float64)
		if err != nil {
			return err
		}
		*d = c.Float64Val()
	case *string:
		if v.IsNull() {
			*d = ""
		} else {
			*d = v.String()
		}
	case *bool:
		c, err := cast(sqltypes.Bool)
		if err != nil {
			return err
		}
		*d = !c.IsNull() && c.Bool()
	case *time.Time:
		if v.IsNull() {
			*d = time.Time{}
			return nil
		}
		c, err := cast(sqltypes.Timestamp)
		if err != nil {
			return err
		}
		*d = c.Time()
	default:
		return fmt.Errorf("unsupported destination type %T", dest)
	}
	return nil
}

// nativeValue maps an engine value onto its natural Go representation.
func nativeValue(v sqltypes.Value) any {
	switch v.T {
	case sqltypes.Unknown:
		return nil
	case sqltypes.Bool:
		return v.Bool()
	case sqltypes.Int32:
		return int32(v.Int64Val())
	case sqltypes.Int64:
		return v.Int64Val()
	case sqltypes.Float64:
		return v.Float64Val()
	case sqltypes.String:
		return v.StringVal()
	case sqltypes.Timestamp:
		return v.Time()
	default:
		return v.String()
	}
}

// ---------------------------------------------------------------------------
// Session-side cursor construction

// queryExec starts a compiled physical plan as a streaming cursor under
// ctx, applying the session's QueryTimeout when the caller set no
// deadline of its own.
func (s *Session) queryExec(ctx context.Context, exec physical.Exec) (*Rows, error) {
	return s.queryExecMeta(ctx, exec, queryMeta{})
}

// queryExecMeta is queryExec carrying entry-point context (statement text,
// parse/plan timings, plan-cache outcome) into the query's stats.
func (s *Session) queryExecMeta(ctx context.Context, exec physical.Exec, meta queryMeta) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cancel context.CancelFunc
	if s.cfg.QueryTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		}
	}
	// One query id serves both accounting domains: the memory tracker and
	// the stats object (which also labels the query's pprof samples).
	queryID := s.mem.NextQueryID()
	s.qStarted.Inc()
	// Record detail only when someone will read it: EXPLAIN ANALYZE, or a
	// session with a slow-query hook or a sized trace ring (exactly the
	// sessions that keep a tracer). Every other query keeps counters only.
	var qs *obs.QueryStats
	switch {
	case meta.force || s.tracer != nil:
		qs = obs.NewQueryStats(queryID, meta.sql, s.tracer)
		if meta.cacheHit {
			qs.Event("plan cache hit", -1, 0)
		} else {
			qs.Event("plan", -1, time.Duration(meta.parseNs+meta.planNs))
		}
	case !s.cfg.DisableObservability:
		qs = obs.NewQueryCounters(queryID, meta.sql)
	}
	if qs != nil {
		qs.ParseNs, qs.PlanNs, qs.CacheHit = meta.parseNs, meta.planNs, meta.cacheHit
		ctx = obs.WithQuery(ctx, qs)
	}
	// Memory budget: refuse admission while the engine pool is saturated,
	// then give the query its own tracker — every operator that buffers
	// state reserves against it and the whole grant returns on shutdown.
	var tracker *memory.Tracker
	if s.mem.Limit() > 0 || s.cfg.QueryMemoryLimit > 0 {
		if err := s.mem.Admit(queryID); err != nil {
			if cancel != nil {
				cancel()
			}
			s.qDone.Inc()
			s.qFailed.Inc()
			return nil, err
		}
		tracker = s.mem.NewTracker(queryID, s.cfg.QueryMemoryLimit)
		if s.spill != nil {
			// Out-of-core pressure valve: a failing reservation anywhere in
			// the query first evicts its sealed resident runs to disk.
			tr := tracker
			tracker.SetValve(func() bool { return s.spill.EvictFor(tr) })
		}
		ctx = memory.WithTracker(ctx, tracker)
	}
	fail := func(err error) (*Rows, error) {
		tracker.Close()
		if cancel != nil {
			cancel()
		}
		s.qDone.Inc()
		s.qFailed.Inc()
		return nil, err
	}
	ec := physical.NewExecContextCtx(ctx, s.ctx)
	ec.Query = qs
	var (
		r     rdd.RDD
		err   error
		limit int64 = -1
	)
	if lim, ok := exec.(*physical.LimitExec); ok && !meta.force {
		// A root LIMIT streams a per-partition limit and truncates at the
		// cursor: partition tasks run in parallel ahead of it, and the
		// remaining ones stop once n rows are delivered.
		// EXPLAIN ANALYZE (meta.force) takes the full global-limit plan
		// instead: truncating at the cursor abandons operator iterators
		// mid-stream, losing their buffered counts.
		limit = lim.N
		r, err = lim.ExecuteStreaming(ec)
	} else {
		r, err = exec.Execute(ec)
	}
	if err != nil {
		return fail(err)
	}
	return &Rows{schema: exec.Schema(), stream: s.ctx.StreamJob(ctx, r), cancel: cancel, mem: tracker,
		remaining: limit, sess: s, qs: qs, ec: ec, exec: exec, start: time.Now()}, nil
}

// queryNode compiles a logical plan and starts it as a cursor.
func (s *Session) queryNode(ctx context.Context, n plan.Node) (*Rows, error) {
	t0 := time.Now()
	exec, err := s.compile(n)
	if err != nil {
		return nil, err
	}
	return s.queryExecMeta(ctx, exec, queryMeta{planNs: time.Since(t0).Nanoseconds()})
}
