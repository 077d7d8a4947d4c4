// Package rdd implements the distributed-collection substrate the engine
// executes on: partitioned resilient datasets with narrow and shuffle
// dependencies, an in-memory columnar shuffle service and a DAG
// scheduler running tasks on a bounded worker pool — a faithful
// single-process analogue of Spark's core (Zaharia et al., NSDI 2012),
// which the Indexed DataFrame plugs into.
package rdd

import (
	"context"
	"fmt"

	"indexeddf/internal/memory"
	"indexeddf/internal/obs"
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// RDD is a partitioned dataset of rows. Compute produces one partition's
// rows; narrow parents are computed inline (pipelined), wide parents are
// satisfied from shuffle outputs prepared by the scheduler.
type RDD interface {
	// ID is unique within a Context.
	ID() int
	// NumPartitions returns the partition count.
	NumPartitions() int
	// Compute returns an iterator over the rows of one partition.
	Compute(tc *TaskContext, partition int) (sqltypes.RowIter, error)
	// Dependencies lists the parent dependencies.
	Dependencies() []Dependency
}

// Dependency is an edge in the RDD lineage graph.
type Dependency interface {
	Parent() RDD
}

// OneToOne is a narrow dependency: the child computes the parent's
// partitions inline in its own tasks — partition i from parent partition i
// for maps and zips, offset for a union, all of them in order for a
// gather.
type OneToOne struct{ P RDD }

// Parent implements Dependency.
func (d OneToOne) Parent() RDD { return d.P }

// ShuffleDependency is a wide dependency through the columnar exchange:
// map tasks scatter column-major batches into reduce buckets by hashing
// the key columns with the vectorized kernel (vector.HashColumns), and
// reduce tasks stream the sealed batches back out, so data stays columnar
// across the stage boundary. Row-producing parents are gathered into
// batches of Schema at the map side.
type ShuffleDependency struct {
	P         RDD
	ShuffleID int
	// Schema is the parent's row schema.
	Schema *sqltypes.Schema
	// Ords are the key column ordinals; empty routes everything to
	// reduce partition 0.
	Ords []int
	// N is the reduce-side partition count.
	N int
	// Obs, when non-nil, receives the map side's runtime numbers (rows,
	// batches, payload bytes, task wall time) — the exchange operator's
	// stats are collected here because its output iterator belongs to the
	// shuffle service, not to an Execute closure.
	Obs *obs.OpStats
}

// Parent implements Dependency.
func (d *ShuffleDependency) Parent() RDD { return d.P }

// newShuffleDependency allocates a shuffle id for a columnar exchange of
// parent into n reduce partitions.
func (c *Context) newShuffleDependency(parent RDD, schema *sqltypes.Schema, ords []int, n int) *ShuffleDependency {
	return &ShuffleDependency{P: parent, ShuffleID: c.nextShuffleID(), Schema: schema, Ords: ords, N: n}
}

// TaskContext carries per-task state into Compute.
type TaskContext struct {
	Ctx       *Context
	Partition int

	// ctx is the query's cancellation context (nil means background).
	// Long-running Compute loops poll Err to stop promptly when the query
	// is cancelled or its deadline expires.
	ctx context.Context
}

// Err reports the task's cancellation state: nil while the query is live,
// context.Canceled / context.DeadlineExceeded once it is not. Operators
// with long per-partition loops (scans, shuffle writes) poll this every
// block of rows.
func (tc *TaskContext) Err() error {
	if tc == nil || tc.ctx == nil {
		return nil
	}
	return tc.ctx.Err()
}

// Cancellation returns the task's context (context.Background when the job
// was started without one).
func (tc *TaskContext) Cancellation() context.Context {
	if tc == nil || tc.ctx == nil {
		return context.Background()
	}
	return tc.ctx
}

// Mem returns the query's memory tracker (nil — and therefore a no-op
// tracker — when the job runs without budgets). Operators that buffer
// unbounded state (hash tables, sort runs, top-n stores) reserve against
// it and fail fast with a memory.LimitError instead of OOMing the process.
func (tc *TaskContext) Mem() *memory.Tracker {
	if tc == nil || tc.ctx == nil {
		return nil
	}
	return memory.FromContext(tc.ctx)
}

// ---------------------------------------------------------------------------
// Concrete RDDs

// SliceRDD is a materialized dataset: rows pre-split into partitions.
type SliceRDD struct {
	id    int
	parts [][]sqltypes.Row
}

// NewSliceRDD wraps pre-partitioned rows.
func (c *Context) NewSliceRDD(parts [][]sqltypes.Row) *SliceRDD {
	return &SliceRDD{id: c.nextRDDID(), parts: parts}
}

// Parallelize splits rows round-robin into n partitions.
func (c *Context) Parallelize(rows []sqltypes.Row, n int) *SliceRDD {
	if n <= 0 {
		n = c.Parallelism()
	}
	parts := make([][]sqltypes.Row, n)
	chunk := (len(rows) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * chunk
		hi := lo + chunk
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		parts[i] = rows[lo:hi]
	}
	return c.NewSliceRDD(parts)
}

// ID implements RDD.
func (r *SliceRDD) ID() int { return r.id }

// NumPartitions implements RDD.
func (r *SliceRDD) NumPartitions() int { return len(r.parts) }

// Dependencies implements RDD.
func (r *SliceRDD) Dependencies() []Dependency { return nil }

// Compute implements RDD.
func (r *SliceRDD) Compute(_ *TaskContext, p int) (sqltypes.RowIter, error) {
	if p < 0 || p >= len(r.parts) {
		return nil, fmt.Errorf("rdd: partition %d out of range", p)
	}
	return sqltypes.NewSliceIter(r.parts[p]), nil
}

// IterRDD computes partitions through a user function; the workhorse every
// physical operator builds on (MapPartitions in Spark terms).
type IterRDD struct {
	id     int
	parent RDD
	nParts int
	fn     func(tc *TaskContext, partition int, parent sqltypes.RowIter) (sqltypes.RowIter, error)
}

// NewIterRDD builds an RDD computing each partition from the parent's
// partition via fn. With a nil parent, fn receives a nil iterator and nParts
// must be given.
func (c *Context) NewIterRDD(parent RDD, nParts int,
	fn func(tc *TaskContext, partition int, parent sqltypes.RowIter) (sqltypes.RowIter, error)) *IterRDD {
	if parent != nil {
		nParts = parent.NumPartitions()
	}
	return &IterRDD{id: c.nextRDDID(), parent: parent, nParts: nParts, fn: fn}
}

// ID implements RDD.
func (r *IterRDD) ID() int { return r.id }

// NumPartitions implements RDD.
func (r *IterRDD) NumPartitions() int { return r.nParts }

// Dependencies implements RDD.
func (r *IterRDD) Dependencies() []Dependency {
	if r.parent == nil {
		return nil
	}
	return []Dependency{OneToOne{P: r.parent}}
}

// Compute implements RDD.
func (r *IterRDD) Compute(tc *TaskContext, p int) (sqltypes.RowIter, error) {
	var in sqltypes.RowIter
	if r.parent != nil {
		var err error
		in, err = r.parent.Compute(tc, p)
		if err != nil {
			return nil, err
		}
	}
	return r.fn(tc, p, in)
}

// ShuffledRDD reads the reduce side of a shuffle dependency.
type ShuffledRDD struct {
	id  int
	dep *ShuffleDependency
}

// NewBatchShuffledRDD repartitions parent through the columnar exchange:
// map tasks scatter batches by hashing the key ordinals (all rows to
// reduce partition 0 when ords is empty), and Compute serves the reduce
// side as a batch stream behind a row-iterator shim — a vectorized
// consumer splices the batches back out through vector.AsBatchIter, a row
// consumer just reads rows.
func (c *Context) NewBatchShuffledRDD(parent RDD, schema *sqltypes.Schema, ords []int, nReduce int) *ShuffledRDD {
	if len(ords) == 0 {
		nReduce = 1
	}
	return &ShuffledRDD{id: c.nextRDDID(), dep: c.newShuffleDependency(parent, schema, ords, nReduce)}
}

// SetObs routes the shuffle's map-side runtime numbers into st (nil
// disables collection).
func (r *ShuffledRDD) SetObs(st *obs.OpStats) { r.dep.Obs = st }

// ID implements RDD.
func (r *ShuffledRDD) ID() int { return r.id }

// NumPartitions implements RDD.
func (r *ShuffledRDD) NumPartitions() int { return r.dep.N }

// Dependencies implements RDD.
func (r *ShuffledRDD) Dependencies() []Dependency { return []Dependency{r.dep} }

// Compute implements RDD: the reduce side streams one map task's bucket
// at a time instead of concatenating everything up front.
func (r *ShuffledRDD) Compute(tc *TaskContext, p int) (sqltypes.RowIter, error) {
	obs.FromContext(tc.Cancellation()).Event("shuffle fetch", p, 0)
	br, err := tc.Ctx.shuffles.OpenBatchReader(r.dep.ShuffleID, p, tc)
	if err != nil {
		return nil, err
	}
	return vector.NewRowIter(br), nil
}

// GatherRDD is a narrow, single-partition view of its parent: its one
// partition computes the parent's partitions in order, inline, one at a
// time. It replaces a gather shuffle where the consumer needs every row in
// one place but no stage boundary — a row sort, a global limit. Nothing
// is materialized between the parent and the consumer, so a limit above
// it stops before the later parent partitions are computed.
type GatherRDD struct {
	id     int
	parent RDD
}

// NewGatherRDD gathers parent's partitions into one.
func (c *Context) NewGatherRDD(parent RDD) *GatherRDD {
	return &GatherRDD{id: c.nextRDDID(), parent: parent}
}

// ID implements RDD.
func (r *GatherRDD) ID() int { return r.id }

// NumPartitions implements RDD.
func (r *GatherRDD) NumPartitions() int { return 1 }

// Dependencies implements RDD.
func (r *GatherRDD) Dependencies() []Dependency { return []Dependency{OneToOne{P: r.parent}} }

// Compute implements RDD.
func (r *GatherRDD) Compute(tc *TaskContext, p int) (sqltypes.RowIter, error) {
	if p != 0 {
		return nil, fmt.Errorf("rdd: gather partition %d out of range", p)
	}
	return &gatherIter{tc: tc, parent: r.parent}, nil
}

// gatherIter pulls the parent's partitions in order, polling tc for
// cancellation before it computes each one.
type gatherIter struct {
	tc     *TaskContext
	parent RDD
	next   int
	cur    sqltypes.RowIter
}

// Next implements sqltypes.RowIter.
func (it *gatherIter) Next() (sqltypes.Row, error) {
	for {
		if it.cur != nil {
			row, err := it.cur.Next()
			if err != nil || row != nil {
				return row, err
			}
			it.cur = nil
		}
		if it.next >= it.parent.NumPartitions() {
			return nil, nil
		}
		if err := it.tc.Err(); err != nil {
			return nil, err
		}
		cur, err := it.parent.Compute(it.tc, it.next)
		if err != nil {
			return nil, fmt.Errorf("rdd: partition %d of rdd %d: %w", it.next, it.parent.ID(), err)
		}
		it.cur = cur
		it.next++
	}
}

// UnionRDD concatenates the partitions of several parents.
type UnionRDD struct {
	id      int
	parents []RDD
}

// NewUnionRDD builds the union of parents (partition counts add up).
func (c *Context) NewUnionRDD(parents ...RDD) *UnionRDD {
	return &UnionRDD{id: c.nextRDDID(), parents: parents}
}

// ID implements RDD.
func (r *UnionRDD) ID() int { return r.id }

// NumPartitions implements RDD.
func (r *UnionRDD) NumPartitions() int {
	n := 0
	for _, p := range r.parents {
		n += p.NumPartitions()
	}
	return n
}

// Dependencies implements RDD.
func (r *UnionRDD) Dependencies() []Dependency {
	deps := make([]Dependency, len(r.parents))
	for i, p := range r.parents {
		deps[i] = OneToOne{P: p}
	}
	return deps
}

// Compute implements RDD.
func (r *UnionRDD) Compute(tc *TaskContext, p int) (sqltypes.RowIter, error) {
	for _, parent := range r.parents {
		if p < parent.NumPartitions() {
			return parent.Compute(tc, p)
		}
		p -= parent.NumPartitions()
	}
	return nil, fmt.Errorf("rdd: union partition out of range")
}
