package physical

import (
	"fmt"

	"indexeddf/internal/expr"
	"indexeddf/internal/obs"
	"indexeddf/internal/rdd"
	"indexeddf/internal/sqltypes"
)

// JoinType mirrors plan join types at the physical level.
type JoinType uint8

// Physical join types.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
)

func (t JoinType) String() string { return [...]string{"Inner", "LeftOuter"}[t] }

// joinTable is an equi-join hash table: encoded key -> bucket of build
// rows. Buckets are held by pointer so a probe or build touches the map
// with `m[string(buf)]` lookups only — the key string is allocated once
// per distinct key at insert, never per row.
type joinTable struct {
	m map[string]*joinBucket
}

type joinBucket struct {
	rows []sqltypes.Row
}

// Lookup returns the build rows for the key encoded in buf, or nil.
func (t joinTable) Lookup(buf []byte) []sqltypes.Row {
	if b := t.m[string(buf)]; b != nil {
		return b.rows
	}
	return nil
}

// buildHashTable maps normalized composite keys to build-side rows,
// skipping null keys (SQL equi-joins never match NULL).
func buildHashTable(rows []sqltypes.Row, keys []int) joinTable {
	ht := joinTable{m: make(map[string]*joinBucket, len(rows))}
	var buf []byte
	for _, r := range rows {
		if hasNullKey(r, keys) {
			continue
		}
		buf = AppendRowKey(buf[:0], r, keys)
		b := ht.m[string(buf)]
		if b == nil {
			b = &joinBucket{}
			ht.m[string(buf)] = b
		}
		b.rows = append(b.rows, r)
	}
	return ht
}

// probe joins stream rows against the hash table; residual (bound against
// the concatenated left+right schema) further filters matches. tc (may be
// nil) is polled so a cancelled query stops a wide join mid-partition.
func probe(tc *rdd.TaskContext, stream []sqltypes.Row, ht joinTable, streamKeys []int,
	streamIsLeft bool, joinType JoinType, residual expr.Expr, buildWidth int) ([]sqltypes.Row, error) {
	var out []sqltypes.Row
	var buf []byte
	for i, s := range stream {
		if i%1024 == 0 {
			if err := tc.Err(); err != nil {
				return nil, err
			}
		}
		matched := false
		if !hasNullKey(s, streamKeys) {
			buf = AppendRowKey(buf[:0], s, streamKeys)
			for _, b := range ht.Lookup(buf) {
				var joined sqltypes.Row
				if streamIsLeft {
					joined = s.Concat(b)
				} else {
					joined = b.Concat(s)
				}
				if residual != nil {
					keep, err := expr.EvalPredicate(residual, joined)
					if err != nil {
						return nil, err
					}
					if !keep {
						continue
					}
				}
				matched = true
				out = append(out, joined)
			}
		}
		if !matched && joinType == LeftOuterJoin && streamIsLeft {
			out = append(out, s.Concat(nullRow(buildWidth)))
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// ShuffleHashJoin

// ShuffleHashJoinExec hash partitions both sides on the join key and joins
// each pair of co-partitions (build = right).
type ShuffleHashJoinExec struct {
	Left, Right         Exec
	LeftKeys, RightKeys []int
	Type                JoinType
	Residual            expr.Expr
	NumPartitions       int
}

// NewShuffleHashJoin builds a shuffle hash join.
func NewShuffleHashJoin(left, right Exec, leftKeys, rightKeys []int, t JoinType,
	residual expr.Expr, numPartitions int) *ShuffleHashJoinExec {
	return &ShuffleHashJoinExec{Left: left, Right: right, LeftKeys: leftKeys,
		RightKeys: rightKeys, Type: t, Residual: residual, NumPartitions: numPartitions}
}

// Schema implements Exec.
func (j *ShuffleHashJoinExec) Schema() *sqltypes.Schema {
	return j.Left.Schema().Concat(j.Right.Schema())
}

// Children implements Exec.
func (j *ShuffleHashJoinExec) Children() []Exec { return []Exec{j.Left, j.Right} }

func (j *ShuffleHashJoinExec) String() string {
	return fmt.Sprintf("ShuffleHashJoin %s lkeys=%v rkeys=%v", j.Type, j.LeftKeys, j.RightKeys)
}

// Execute implements Exec.
func (j *ShuffleHashJoinExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	left, err := j.Left.Execute(ec)
	if err != nil {
		return nil, err
	}
	right, err := j.Right.Execute(ec)
	if err != nil {
		return nil, err
	}
	ls := ec.RDD.NewBatchShuffledRDD(left, j.Left.Schema(), j.LeftKeys, j.NumPartitions)
	rs := ec.RDD.NewBatchShuffledRDD(right, j.Right.Schema(), j.RightKeys, j.NumPartitions)
	lKeys, rKeys := j.LeftKeys, j.RightKeys
	jt, residual := j.Type, j.Residual
	rightWidth := j.Right.Schema().Len()
	st := ec.Stats(j)
	return ec.RDD.NewZipRDD(ls, rs, func(tc *rdd.TaskContext, _ int, lit, rit sqltypes.RowIter) (sqltypes.RowIter, error) {
		rrows, err := sqltypes.Drain(rit)
		if err != nil {
			return nil, err
		}
		lrows, err := sqltypes.Drain(lit)
		if err != nil {
			return nil, err
		}
		st.AddRowsIn(int64(len(lrows) + len(rrows)))
		ht := buildHashTable(rrows, rKeys)
		out, err := probe(tc, lrows, ht, lKeys, true, jt, residual, rightWidth)
		if err != nil {
			return nil, err
		}
		return obs.Rows(st, sqltypes.NewSliceIter(out)), nil
	})
}

// ---------------------------------------------------------------------------
// BroadcastHashJoin

// BroadcastHashJoinExec collects the build side at the driver and streams
// the other side through a hash table, avoiding any shuffle.
type BroadcastHashJoinExec struct {
	Stream, Build         Exec
	StreamKeys, BuildKeys []int
	// BuildIsRight records whether Build is the logical right side (output
	// column order must stay left-then-right).
	BuildIsRight bool
	Type         JoinType
	Residual     expr.Expr
}

// NewBroadcastHashJoin builds a broadcast hash join.
func NewBroadcastHashJoin(stream, build Exec, streamKeys, buildKeys []int,
	buildIsRight bool, t JoinType, residual expr.Expr) *BroadcastHashJoinExec {
	return &BroadcastHashJoinExec{Stream: stream, Build: build, StreamKeys: streamKeys,
		BuildKeys: buildKeys, BuildIsRight: buildIsRight, Type: t, Residual: residual}
}

// Schema implements Exec.
func (j *BroadcastHashJoinExec) Schema() *sqltypes.Schema {
	if j.BuildIsRight {
		return j.Stream.Schema().Concat(j.Build.Schema())
	}
	return j.Build.Schema().Concat(j.Stream.Schema())
}

// Children implements Exec.
func (j *BroadcastHashJoinExec) Children() []Exec { return []Exec{j.Stream, j.Build} }

func (j *BroadcastHashJoinExec) String() string {
	return fmt.Sprintf("BroadcastHashJoin %s skeys=%v bkeys=%v", j.Type, j.StreamKeys, j.BuildKeys)
}

// Execute implements Exec.
func (j *BroadcastHashJoinExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	buildRDD, err := j.Build.Execute(ec)
	if err != nil {
		return nil, err
	}
	buildRows, err := ec.RDD.CollectCtx(ec.Ctx, buildRDD) // the broadcast
	if err != nil {
		return nil, err
	}
	ht := buildHashTable(buildRows, j.BuildKeys)
	stream, err := j.Stream.Execute(ec)
	if err != nil {
		return nil, err
	}
	sKeys := j.StreamKeys
	jt, residual := j.Type, j.Residual
	buildWidth := j.Build.Schema().Len()
	streamIsLeft := j.BuildIsRight
	st := ec.Stats(j)
	return ec.RDD.NewIterRDD(stream, 0, func(tc *rdd.TaskContext, _ int, in sqltypes.RowIter) (sqltypes.RowIter, error) {
		srows, err := sqltypes.Drain(in)
		if err != nil {
			return nil, err
		}
		st.AddRowsIn(int64(len(srows)))
		out, err := probe(tc, srows, ht, sKeys, streamIsLeft, jt, residual, buildWidth)
		if err != nil {
			return nil, err
		}
		return obs.Rows(st, sqltypes.NewSliceIter(out)), nil
	}), nil
}

// ---------------------------------------------------------------------------
// NestedLoopJoin

// NestedLoopJoinExec evaluates an arbitrary condition against the cross
// product, broadcasting the right side. The fallback for non-equi joins.
type NestedLoopJoinExec struct {
	Left, Right Exec
	Type        JoinType
	Cond        expr.Expr // bound against concatenated schema; nil = cross
}

// NewNestedLoopJoin builds a nested-loop join.
func NewNestedLoopJoin(left, right Exec, t JoinType, cond expr.Expr) *NestedLoopJoinExec {
	return &NestedLoopJoinExec{Left: left, Right: right, Type: t, Cond: cond}
}

// Schema implements Exec.
func (j *NestedLoopJoinExec) Schema() *sqltypes.Schema {
	return j.Left.Schema().Concat(j.Right.Schema())
}

// Children implements Exec.
func (j *NestedLoopJoinExec) Children() []Exec { return []Exec{j.Left, j.Right} }

func (j *NestedLoopJoinExec) String() string {
	if j.Cond == nil {
		return fmt.Sprintf("NestedLoopJoin %s (cross)", j.Type)
	}
	return fmt.Sprintf("NestedLoopJoin %s on %s", j.Type, j.Cond)
}

// Execute implements Exec.
func (j *NestedLoopJoinExec) Execute(ec *ExecContext) (rdd.RDD, error) {
	rightRDD, err := j.Right.Execute(ec)
	if err != nil {
		return nil, err
	}
	rightRows, err := ec.RDD.CollectCtx(ec.Ctx, rightRDD)
	if err != nil {
		return nil, err
	}
	left, err := j.Left.Execute(ec)
	if err != nil {
		return nil, err
	}
	cond, jt := j.Cond, j.Type
	rightWidth := j.Right.Schema().Len()
	st := ec.Stats(j)
	return ec.RDD.NewIterRDD(left, 0, func(tc *rdd.TaskContext, _ int, in sqltypes.RowIter) (sqltypes.RowIter, error) {
		in = obs.CountInto(st, in)
		var out []sqltypes.Row
		for {
			// The cross product explodes quadratically; poll cancellation
			// every stream row so a cancelled query stops mid-partition.
			if err := tc.Err(); err != nil {
				return nil, err
			}
			l, err := in.Next()
			if err != nil {
				return nil, err
			}
			if l == nil {
				break
			}
			matched := false
			for _, r := range rightRows {
				joined := l.Concat(r)
				if cond != nil {
					keep, err := expr.EvalPredicate(cond, joined)
					if err != nil {
						return nil, err
					}
					if !keep {
						continue
					}
				}
				matched = true
				out = append(out, joined)
			}
			if !matched && jt == LeftOuterJoin {
				out = append(out, l.Concat(nullRow(rightWidth)))
			}
		}
		return obs.Rows(st, sqltypes.NewSliceIter(out)), nil
	}), nil
}
