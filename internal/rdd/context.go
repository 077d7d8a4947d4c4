package rdd

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"indexeddf/internal/faultpoint"
	"indexeddf/internal/memory"
	"indexeddf/internal/obs"
	"indexeddf/internal/spill"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// Context is the engine's "SparkContext": it owns id allocation, the
// shuffle service and the task pool, and schedules jobs.
type Context struct {
	rddID       atomic.Int64
	shuffleID   atomic.Int64
	parallelism int
	shuffles    *ShuffleManager
	spill       *spill.Manager // nil = out-of-core execution disabled

	// Task metrics: partition tasks (result or shuffle-map) started and
	// completed since the context was created. Streaming-cursor tests use
	// the deltas to assert that early rows don't wait for the whole job and
	// that cancellation stops the remaining tasks.
	tasksStarted   atomic.Int64
	tasksCompleted atomic.Int64

	// shuffleBytes totals the payload bytes written through the shuffle
	// service since the context was created (registry counter).
	shuffleBytes atomic.Int64
}

// Option configures a Context.
type Option func(*Context)

// WithParallelism sets the number of concurrent tasks.
func WithParallelism(n int) Option {
	return func(c *Context) {
		if n > 0 {
			c.parallelism = n
		}
	}
}

// WithSpill enables out-of-core execution: blocking operators (shuffle
// stores, sort runs, join builds) spill to m's run files when the query's
// memory budget refuses their next reservation. Without it (or without a
// budget) over-limit queries keep failing with memory.ErrMemoryExceeded.
func WithSpill(m *spill.Manager) Option {
	return func(c *Context) {
		c.spill = m
		c.shuffles.spill = m
	}
}

// NewContext builds a Context with sane defaults (parallelism =
// GOMAXPROCS).
func NewContext(opts ...Option) *Context {
	c := &Context{
		parallelism: runtime.GOMAXPROCS(0),
		shuffles:    NewShuffleManager(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Parallelism returns the task pool width.
func (c *Context) Parallelism() int { return c.parallelism }

// TasksStarted returns the number of partition tasks launched so far.
func (c *Context) TasksStarted() int64 { return c.tasksStarted.Load() }

// TasksCompleted returns the number of partition tasks finished so far.
func (c *Context) TasksCompleted() int64 { return c.tasksCompleted.Load() }

// ShuffleBytes returns the total payload bytes written through the shuffle
// service since the context was created.
func (c *Context) ShuffleBytes() int64 { return c.shuffleBytes.Load() }

// ShuffleOutstanding reports how many shuffles still retain map outputs —
// the leak invariant: it returns to zero once every cursor over shuffle
// stages is closed (cleanly, truncated by LIMIT, or cancelled).
func (c *Context) ShuffleOutstanding() int { return c.shuffles.Outstanding() }

// SpillManager returns the out-of-core spill fabric (nil when disabled).
func (c *Context) SpillManager() *spill.Manager { return c.spill }

func (c *Context) nextRDDID() int     { return int(c.rddID.Add(1)) }
func (c *Context) nextShuffleID() int { return int(c.shuffleID.Add(1)) }

// parallelFor runs f(0..n-1) on the task pool and returns the first error.
// A cancelled ctx stops handing out new indices and surfaces ctx.Err().
// Worker panics are contained: a panicking f fails the loop with a
// *TaskPanicError instead of killing the process.
func (c *Context) parallelFor(ctx context.Context, n int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	run := func(i int) (err error) {
		defer containPanic(&err)
		return f(i)
	}
	width := c.parallelism
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		mu   sync.Mutex
		errs error
	)
	fail := func(err error) {
		mu.Lock()
		if errs == nil {
			errs = err
		}
		mu.Unlock()
	}
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// computePartition runs one partition task to completion: Compute, then a
// cancellation-aware drain charging the materialized rows to the query's
// memory tracker. Task metrics are updated around it; a panic anywhere in
// the operator chain is contained into the returned error. The second
// result is the drained rows' accounted byte size (0 without a tracker).
func (c *Context) computePartition(ctx context.Context, r RDD, p int) ([]sqltypes.Row, int64, error) {
	qs := obs.FromContext(ctx)
	if !qs.Detailed() {
		return c.computeTask(ctx, r, p, qs)
	}
	// Attribute the task's CPU samples to the query and record the span.
	var (
		rows  []sqltypes.Row
		bytes int64
		err   error
	)
	start := time.Now()
	qs.Do(ctx, "", func(ctx context.Context) {
		rows, bytes, err = c.computeTask(ctx, r, p, qs)
	})
	qs.Event("task", p, time.Since(start))
	return rows, bytes, err
}

func (c *Context) computeTask(ctx context.Context, r RDD, p int, qs *obs.QueryStats) (rows []sqltypes.Row, bytes int64, err error) {
	c.tasksStarted.Add(1)
	qs.TaskStarted()
	defer containPanic(&err)
	if err := faultpoint.Hit(faultpoint.TaskStart); err != nil {
		return nil, 0, fmt.Errorf("rdd: partition %d of rdd %d: %w", p, r.ID(), err)
	}
	tc := &TaskContext{Ctx: c, Partition: p, ctx: ctx}
	it, err := r.Compute(tc, p)
	if err != nil {
		return nil, 0, fmt.Errorf("rdd: partition %d of rdd %d: %w", p, r.ID(), err)
	}
	rows, bytes, err = drainCtx(ctx, it)
	if err != nil {
		return nil, bytes, fmt.Errorf("rdd: partition %d of rdd %d: %w", p, r.ID(), err)
	}
	c.tasksCompleted.Add(1)
	qs.TaskFinished()
	return rows, bytes, nil
}

// drainCtx materializes an iterator, checking for cancellation between
// blocks of rows so runaway tasks stop promptly, and charging the
// buffered rows to the query's memory tracker block by block — an
// over-budget gather fails mid-drain, not after it OOMs.
func drainCtx(ctx context.Context, it sqltypes.RowIter) ([]sqltypes.Row, int64, error) {
	const checkEvery = 1024
	mem := memory.FromContext(ctx)
	var out []sqltypes.Row
	var bytes, charged int64
	for {
		if len(out)%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, charged, err
			}
			if bytes > charged {
				if err := mem.Reserve("result buffer", bytes-charged); err != nil {
					return nil, charged, err
				}
				charged = bytes
			}
		}
		row, err := it.Next()
		if err != nil {
			return nil, charged, err
		}
		if row == nil {
			if bytes > charged {
				if err := mem.Reserve("result buffer", bytes-charged); err != nil {
					return nil, charged, err
				}
				charged = bytes
			}
			return out, charged, nil
		}
		out = append(out, row)
		bytes += RowBytes(row)
	}
}

// RowBytes estimates one row's resident size for accounting: value
// headers plus string payloads.
func RowBytes(row sqltypes.Row) int64 {
	size := int64(len(row)) * 24
	for _, v := range row {
		size += int64(len(v.S))
	}
	return size
}

// RunJob schedules the RDD — materializing every shuffle stage it depends
// on, bottom-up — and returns the rows of each partition. When the job
// finishes its shuffle outputs are released (Spark keeps them for lineage
// re-use; our queries build fresh RDD graphs, so retaining them would only
// leak).
func (c *Context) RunJob(r RDD) ([][]sqltypes.Row, error) {
	return c.RunJobCtx(context.Background(), r)
}

// RunJobCtx is RunJob under a context: cancellation or deadline expiry
// stops scheduling new partition tasks, interrupts running drains and
// shuffle stages, and surfaces ctx.Err().
func (c *Context) RunJobCtx(ctx context.Context, r RDD) ([][]sqltypes.Row, error) {
	defer c.releaseShuffles(r, map[int]bool{})
	if err := c.ensureShuffles(ctx, r, map[int]bool{}); err != nil {
		return nil, err
	}
	out := make([][]sqltypes.Row, r.NumPartitions())
	err := c.parallelFor(ctx, r.NumPartitions(), func(p int) error {
		rows, _, err := c.computePartition(ctx, r, p)
		if err != nil {
			return err
		}
		out[p] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Collect runs the job and concatenates all partitions.
func (c *Context) Collect(r RDD) ([]sqltypes.Row, error) {
	return c.CollectCtx(context.Background(), r)
}

// CollectCtx is Collect under a context.
func (c *Context) CollectCtx(ctx context.Context, r RDD) ([]sqltypes.Row, error) {
	parts, err := c.RunJobCtx(ctx, r)
	if err != nil {
		return nil, err
	}
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]sqltypes.Row, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Count runs the job and returns the total row count.
func (c *Context) Count(r RDD) (int64, error) {
	parts, err := c.RunJob(r)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	return n, nil
}

// releaseShuffles drops the map outputs of every shuffle reachable from r.
func (c *Context) releaseShuffles(r RDD, visited map[int]bool) {
	if visited[r.ID()] {
		return
	}
	visited[r.ID()] = true
	for _, dep := range r.Dependencies() {
		c.releaseShuffles(dep.Parent(), visited)
		if sd, ok := dep.(*ShuffleDependency); ok {
			c.shuffles.Drop(sd.ShuffleID)
		}
	}
}

// ensureShuffles walks the lineage graph and materializes every shuffle
// stage (map outputs) reachable from r, parents first.
func (c *Context) ensureShuffles(ctx context.Context, r RDD, visiting map[int]bool) error {
	if visiting[r.ID()] {
		return nil
	}
	visiting[r.ID()] = true
	for _, dep := range r.Dependencies() {
		if err := c.ensureShuffles(ctx, dep.Parent(), visiting); err != nil {
			return err
		}
		if sd, ok := dep.(*ShuffleDependency); ok {
			if err := c.runShuffleStage(ctx, sd); err != nil {
				return err
			}
		}
	}
	return nil
}

// runShuffleStage computes the map side of a shuffle: each parent
// partition is computed and scattered column-wise into the shuffle
// service. Idempotent per shuffle id.
func (c *Context) runShuffleStage(ctx context.Context, dep *ShuffleDependency) error {
	return c.shuffles.RunOnce(dep.ShuffleID, func() error {
		qs := obs.FromContext(ctx)
		return c.parallelFor(ctx, dep.P.NumPartitions(), func(mapPart int) error {
			if !qs.Detailed() {
				return c.shuffleMapTask(ctx, dep, mapPart, qs)
			}
			start := time.Now()
			var taskErr error
			qs.Do(ctx, "", func(ctx context.Context) {
				taskErr = c.shuffleMapTask(ctx, dep, mapPart, qs)
			})
			dur := time.Since(start)
			qs.Event("shuffle write", mapPart, dur)
			dep.Obs.AddWall(int64(dur))
			return taskErr
		})
	})
}

// spillFlushBytes is how much scattered input a spilling map task buffers
// before sealing the scatter into the per-reducer runs, keeping the map
// side's resident high-water at a small constant instead of the whole
// partition.
const spillFlushBytes = 1 << 20

// shuffleMapTask computes one parent partition and publishes its buckets
// into the shuffle service. The partition's output is viewed as a batch
// stream (spliced through untouched when the parent operator is
// vectorized, gathered into batches otherwise) and scattered column-wise
// into per-reducer builders. With out-of-core execution available and a
// budget in force, the builders flush incrementally into per-reducer spill
// runs, which go to disk when the budget refuses them; otherwise the whole
// partition is scattered and sealed in one shot (the in-memory fast path).
func (c *Context) shuffleMapTask(ctx context.Context, dep *ShuffleDependency, mapPart int, qs *obs.QueryStats) error {
	c.tasksStarted.Add(1)
	qs.TaskStarted()
	if err := faultpoint.Hit(faultpoint.TaskStart); err != nil {
		return fmt.Errorf("rdd: shuffle %d map task %d: %w", dep.ShuffleID, mapPart, err)
	}
	tc := &TaskContext{Ctx: c, Partition: mapPart, ctx: ctx}
	it, err := dep.P.Compute(tc, mapPart)
	if err != nil {
		return fmt.Errorf("rdd: shuffle %d map task %d: %w", dep.ShuffleID, mapPart, err)
	}
	bi := vector.AsBatchIter(it, dep.Schema, vector.DefaultBatchSize)
	sc := vector.NewScatter(dep.Schema, dep.Ords, dep.N)
	mem := memory.FromContext(ctx)
	spilling := c.spill.Enabled() && mem != nil

	var runs []*spill.Run
	if spilling {
		runs = make([]*spill.Run, dep.N)
		for i := range runs {
			runs[i] = c.spill.NewRun("shuffle write", dep.Schema, mem, dep.Obs, qs)
		}
	}
	var bytes, rows, nBatches int64
	flush := func() error {
		if err := faultpoint.Hit(faultpoint.BatchSeal); err != nil {
			return fmt.Errorf("rdd: shuffle %d map task %d: %w", dep.ShuffleID, mapPart, err)
		}
		sealed := sc.Seal()
		for reducer, bucket := range sealed {
			for _, b := range bucket {
				bytes += b.MemBytes()
				rows += int64(b.Len())
				nBatches++
				if err := runs[reducer].Append(b); err != nil {
					return fmt.Errorf("rdd: shuffle %d map task %d: %w", dep.ShuffleID, mapPart, err)
				}
			}
		}
		return nil
	}
	var pending int64
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := bi.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		sc.Add(b)
		if spilling {
			pending += b.MemBytes()
			if pending >= spillFlushBytes {
				if err := flush(); err != nil {
					return err
				}
				pending = 0
			}
		}
	}
	if spilling {
		if err := flush(); err != nil {
			return err
		}
		if err := faultpoint.Hit(faultpoint.ShuffleWrite); err != nil {
			return fmt.Errorf("rdd: shuffle %d map task %d: %w", dep.ShuffleID, mapPart, err)
		}
		for _, r := range runs {
			if err := r.Seal(); err != nil {
				return fmt.Errorf("rdd: shuffle %d map task %d: %w", dep.ShuffleID, mapPart, err)
			}
		}
		c.shuffles.WriteBatchRuns(dep.ShuffleID, mapPart, runs)
	} else {
		if err := faultpoint.Hit(faultpoint.BatchSeal); err != nil {
			return fmt.Errorf("rdd: shuffle %d map task %d: %w", dep.ShuffleID, mapPart, err)
		}
		sealed := sc.Seal()
		for _, bucket := range sealed {
			for _, b := range bucket {
				bytes += b.MemBytes()
				rows += int64(b.Len())
				nBatches++
			}
		}
		if err := faultpoint.Hit(faultpoint.ShuffleWrite); err != nil {
			return fmt.Errorf("rdd: shuffle %d map task %d: %w", dep.ShuffleID, mapPart, err)
		}
		if err := mem.Reserve("shuffle write", bytes); err != nil {
			return err
		}
		c.shuffles.charge(dep.ShuffleID, mem, bytes)
		c.shuffles.WriteBatches(dep.ShuffleID, mapPart, sealed)
	}
	c.shuffleBytes.Add(bytes)
	qs.AddShuffleBytes(bytes)
	if dep.Obs != nil {
		dep.Obs.AddRowsOut(rows)
		dep.Obs.AddBatches(nBatches)
		dep.Obs.AddBytes(bytes)
	}
	c.tasksCompleted.Add(1)
	qs.TaskFinished()
	return nil
}

// ShuffleManager is the in-memory shuffle service: map tasks write hashed
// buckets of sealed columnar batches (or spill runs), reduce tasks stream the
// bucket for their partition out of every map output. Each shuffle's
// outputs sit behind their own RWMutex, so reduce-side readers from many
// partitions proceed in parallel — with each other and with map writes of
// other tasks — instead of serializing on one service-wide lock.
type ShuffleManager struct {
	mu       sync.Mutex
	shuffles map[int]*shuffleOutput
	stages   map[int]*shuffleStage
	spill    *spill.Manager // set by WithSpill; nil = in-memory only
}

// shuffleOutput holds one shuffle's map outputs. batches and runs are
// mutually exclusive per shuffle (set by whether the query runs
// out-of-core).
type shuffleOutput struct {
	mu      sync.RWMutex
	batches map[int][][]*vector.Batch // mapPart -> reducer -> sealed batches
	runs    map[int][]*spill.Run      // mapPart -> reducer -> spillable run
	mem     *memory.Tracker           // tracker the retained buckets are charged to
	charged int64                     // bytes charged to mem, released by Drop
}

type shuffleStage struct {
	once sync.Once
	err  error
}

// NewShuffleManager returns an empty shuffle service.
func NewShuffleManager() *ShuffleManager {
	return &ShuffleManager{
		shuffles: make(map[int]*shuffleOutput),
		stages:   make(map[int]*shuffleStage),
	}
}

// RunOnce executes f exactly once per shuffle id, caching its error.
func (m *ShuffleManager) RunOnce(shuffleID int, f func() error) error {
	m.mu.Lock()
	st, ok := m.stages[shuffleID]
	if !ok {
		st = &shuffleStage{}
		m.stages[shuffleID] = st
	}
	m.mu.Unlock()
	st.once.Do(func() { st.err = f() })
	return st.err
}

// output returns (creating on demand) the per-shuffle output store.
func (m *ShuffleManager) output(shuffleID int) *shuffleOutput {
	m.mu.Lock()
	defer m.mu.Unlock()
	out, ok := m.shuffles[shuffleID]
	if !ok {
		out = &shuffleOutput{}
		m.shuffles[shuffleID] = out
	}
	return out
}

// charge records that bytes of retained shuffle output were reserved on
// mem, so Drop can return them. One shuffle belongs to one query, so all
// of its map tasks carry the same tracker.
func (m *ShuffleManager) charge(shuffleID int, mem *memory.Tracker, bytes int64) {
	if mem == nil || bytes == 0 {
		return
	}
	out := m.output(shuffleID)
	out.mu.Lock()
	out.mem = mem
	out.charged += bytes
	out.mu.Unlock()
}

// Outstanding returns the number of shuffles whose map outputs are still
// retained. This is the leak invariant tests assert on: once every cursor
// is closed — including truncated and cancelled ones — it must be zero.
func (m *ShuffleManager) Outstanding() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.shuffles)
}

// lookup returns the shuffle's output store without creating it.
func (m *ShuffleManager) lookup(shuffleID int) (*shuffleOutput, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out, ok := m.shuffles[shuffleID]
	return out, ok
}

// WriteBatches records one map task's columnar buckets.
func (m *ShuffleManager) WriteBatches(shuffleID, mapPart int, buckets [][]*vector.Batch) {
	out := m.output(shuffleID)
	out.mu.Lock()
	defer out.mu.Unlock()
	if out.batches == nil {
		out.batches = make(map[int][][]*vector.Batch)
	}
	out.batches[mapPart] = buckets
}

// WriteBatchRuns records one map task's columnar buckets in spill-run
// form (out-of-core shuffles). The runs are released by Drop; until then
// they serve readers from memory or disk transparently.
func (m *ShuffleManager) WriteBatchRuns(shuffleID, mapPart int, runs []*spill.Run) {
	out := m.output(shuffleID)
	out.mu.Lock()
	defer out.mu.Unlock()
	if out.runs == nil {
		out.runs = make(map[int][]*spill.Run)
	}
	out.runs[mapPart] = runs
}

// batchBucket returns map task mapPart's bucket for reducer p, or
// ok=false when that map task has not written (the reader is past the
// last map).
func (o *shuffleOutput) batchBucket(mapPart, p int) ([]*vector.Batch, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	buckets, ok := o.batches[mapPart]
	if !ok {
		return nil, false
	}
	if p >= len(buckets) {
		return nil, true
	}
	return buckets[p], true
}

// runBucket is batchBucket for an out-of-core shuffle.
func (o *shuffleOutput) runBucket(mapPart, p int) (*spill.Run, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	runs, ok := o.runs[mapPart]
	if !ok {
		return nil, false
	}
	if p >= len(runs) {
		return nil, true
	}
	return runs[p], true
}

// spilled reports whether the shuffle's outputs live in spill runs.
func (o *shuffleOutput) spilled() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.runs != nil
}

// OpenBatchReader streams reduce partition p's batches one map-task bucket
// at a time, in map order: each bucket is picked up under the shuffle's
// read lock when the reader gets to it, so concurrent reduce tasks never
// serialize on a whole-fetch concatenation. The reader polls tc for
// cancellation between buckets. Map outputs must be complete (the
// scheduler runs the map stage to completion before reduce tasks start).
func (m *ShuffleManager) OpenBatchReader(shuffleID, p int, tc *TaskContext) (vector.BatchIter, error) {
	if err := faultpoint.Hit(faultpoint.ShuffleFetch); err != nil {
		return nil, fmt.Errorf("rdd: shuffle %d reduce %d: %w", shuffleID, p, err)
	}
	out, ok := m.lookup(shuffleID)
	if !ok {
		return nil, fmt.Errorf("rdd: shuffle %d has no map outputs (stage not run)", shuffleID)
	}
	return &shuffleBatchReader{out: out, reducer: p, tc: tc}, nil
}

// OpenBatchRunReaders opens one batch reader per map task of a columnar
// shuffle, each limited to that task's bucket for reduce partition p.
// Where OpenBatchReader concatenates the buckets, this keeps them apart —
// the sorted-run merge needs each map task's (sorted) output as its own
// stream. nRuns is the shuffle's map-side partition count.
func (m *ShuffleManager) OpenBatchRunReaders(shuffleID, nRuns, p int, tc *TaskContext) ([]vector.BatchIter, error) {
	if err := faultpoint.Hit(faultpoint.ShuffleFetch); err != nil {
		return nil, fmt.Errorf("rdd: shuffle %d reduce %d: %w", shuffleID, p, err)
	}
	out, ok := m.lookup(shuffleID)
	if !ok {
		return nil, fmt.Errorf("rdd: shuffle %d has no map outputs (stage not run)", shuffleID)
	}
	runs := make([]vector.BatchIter, nRuns)
	for i := range runs {
		runs[i] = &shuffleBatchReader{out: out, reducer: p, tc: tc, mapPart: i, lastMap: i + 1}
	}
	return runs, nil
}

// shuffleBatchReader streams reduce partition reducer's sealed batches
// across map outputs — all of them, or the half-open map range
// [mapPart, lastMap) when lastMap > 0 (per-run readers). On an
// out-of-core shuffle each map task's bucket is a spill run, opened as a
// streaming reader when the cursor gets to it — from memory or from its
// run file, transparently.
type shuffleBatchReader struct {
	out     *shuffleOutput
	reducer int
	tc      *TaskContext
	mapPart int
	lastMap int // exclusive bound on map parts; 0 = unbounded
	cur     []*vector.Batch
	curRun  vector.BatchIter
	pos     int
	done    bool
}

// Next implements vector.BatchIter.
func (r *shuffleBatchReader) Next() (*vector.Batch, error) {
	for {
		if r.curRun != nil {
			b, err := r.curRun.Next()
			if err != nil {
				return nil, err
			}
			if b != nil {
				return b, nil
			}
			r.curRun = nil
		}
		if r.pos < len(r.cur) {
			b := r.cur[r.pos]
			r.pos++
			if b.Len() > 0 {
				return b, nil
			}
			continue
		}
		if r.done {
			return nil, nil
		}
		if err := r.tc.Err(); err != nil {
			return nil, err
		}
		if r.lastMap > 0 && r.mapPart >= r.lastMap {
			r.done = true
			return nil, nil
		}
		if r.out.spilled() {
			run, ok := r.out.runBucket(r.mapPart, r.reducer)
			if !ok {
				r.done = true
				return nil, nil
			}
			r.mapPart++
			if run == nil {
				continue
			}
			it, err := run.Open(r.tc.Err, false)
			if err != nil {
				return nil, err
			}
			r.curRun = it
			continue
		}
		bucket, ok := r.out.batchBucket(r.mapPart, r.reducer)
		if !ok {
			r.done = true
			return nil, nil
		}
		r.mapPart++
		r.cur, r.pos = bucket, 0
	}
}

// Drop releases a shuffle's outputs and returns their bytes to the memory
// tracker they were charged to (a no-op on an already-closed tracker, so a
// late Drop from an unwinding job cannot corrupt accounting).
func (m *ShuffleManager) Drop(shuffleID int) {
	m.mu.Lock()
	out := m.shuffles[shuffleID]
	delete(m.shuffles, shuffleID)
	delete(m.stages, shuffleID)
	m.mu.Unlock()
	if out == nil {
		return
	}
	out.mu.Lock()
	mem, charged := out.mem, out.charged
	runs := out.runs
	out.mem, out.charged, out.runs = nil, 0, nil
	out.mu.Unlock()
	mem.Release(charged)
	for _, rs := range runs {
		for _, r := range rs {
			if r != nil {
				r.Release()
			}
		}
	}
}
