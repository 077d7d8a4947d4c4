package rdd

import (
	"indexeddf/internal/sqltypes"
	"indexeddf/internal/vector"
)

// BatchMergeRDD is the reduce side of an order-preserving gather: the
// parent's partitions cross a columnar exchange into a single reduce
// partition, but each map task's sealed batches stay apart and are handed
// to merge as one BatchIter per map task — the shape a k-way merge of
// per-partition sorted runs needs. (The plain batch gather concatenates
// the buckets in map order, which destroys sortedness across runs.)
type BatchMergeRDD struct {
	id    int
	dep   *ShuffleDependency
	nRuns int
	merge func(tc *TaskContext, runs []vector.BatchIter) (vector.BatchIter, error)
}

// NewBatchMergeRDD gathers parent through the columnar exchange and
// computes its single output partition by merging the per-map-task batch
// streams with merge.
func (c *Context) NewBatchMergeRDD(parent RDD, schema *sqltypes.Schema,
	merge func(tc *TaskContext, runs []vector.BatchIter) (vector.BatchIter, error)) *BatchMergeRDD {
	dep := c.newShuffleDependency(parent, schema, nil, 1)
	return &BatchMergeRDD{id: c.nextRDDID(), dep: dep, nRuns: parent.NumPartitions(), merge: merge}
}

// ID implements RDD.
func (r *BatchMergeRDD) ID() int { return r.id }

// NumPartitions implements RDD.
func (r *BatchMergeRDD) NumPartitions() int { return 1 }

// Dependencies implements RDD.
func (r *BatchMergeRDD) Dependencies() []Dependency { return []Dependency{r.dep} }

// Compute implements RDD: the merged batch stream is presented behind the
// usual row shim, which vectorized consumers splice away.
func (r *BatchMergeRDD) Compute(tc *TaskContext, p int) (sqltypes.RowIter, error) {
	runs, err := tc.Ctx.shuffles.OpenBatchRunReaders(r.dep.ShuffleID, r.nRuns, p, tc)
	if err != nil {
		return nil, err
	}
	out, err := r.merge(tc, runs)
	if err != nil {
		return nil, err
	}
	return vector.NewRowIter(out), nil
}

// BatchRangeMergeRDD is the reduce side of a range-partitioned merge: the
// parent's map tasks publish their sorted runs out of band (spill runs
// plus splitter metadata on a shared coordinator) and the exchange itself
// carries no rows — it exists only as the map→reduce barrier. Each of the
// nParts reduce partitions then merges its key range directly from the
// published runs, so partition outputs concatenate in splitter order.
type BatchRangeMergeRDD struct {
	id     int
	dep    *ShuffleDependency
	nParts int
	merge  func(tc *TaskContext, p int) (vector.BatchIter, error)
}

// NewBatchRangeMergeRDD builds a range merge with nParts reduce partitions
// over parent's (row-free) columnar exchange.
func (c *Context) NewBatchRangeMergeRDD(parent RDD, schema *sqltypes.Schema, nParts int,
	merge func(tc *TaskContext, p int) (vector.BatchIter, error)) *BatchRangeMergeRDD {
	dep := c.newShuffleDependency(parent, schema, nil, 1)
	return &BatchRangeMergeRDD{id: c.nextRDDID(), dep: dep, nParts: nParts, merge: merge}
}

// ID implements RDD.
func (r *BatchRangeMergeRDD) ID() int { return r.id }

// NumPartitions implements RDD.
func (r *BatchRangeMergeRDD) NumPartitions() int { return r.nParts }

// Dependencies implements RDD.
func (r *BatchRangeMergeRDD) Dependencies() []Dependency { return []Dependency{r.dep} }

// Compute implements RDD. The (empty) exchange buckets are never opened;
// teardown drops them like any unread shuffle output.
func (r *BatchRangeMergeRDD) Compute(tc *TaskContext, p int) (sqltypes.RowIter, error) {
	out, err := r.merge(tc, p)
	if err != nil {
		return nil, err
	}
	return vector.NewRowIter(out), nil
}
