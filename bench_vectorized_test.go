// Benchmarks for the vectorized batch-at-a-time engine: the same Figure 2
// workload executed with vectorization on (the default) and off
// (Config.DisableVectorized), so the two execution engines are compared on
// identical plans and data. Run with -benchmem: the vectorized path's
// advantage is both time and allocations.
package indexeddf_test

import (
	"sync"
	"testing"

	"indexeddf"
	"indexeddf/internal/bench"
	"indexeddf/internal/snb"
)

var (
	vecCmpOnce sync.Once
	vecCmpEnvs struct {
		vectorized *bench.Env
		row        *bench.Env
	}
)

// vectorizedEnvs loads the Figure 2 dataset (cluster regime) twice: one
// pair of sessions planning vectorized operators, one forced row-at-a-time.
func vectorizedEnvs(b *testing.B) (vectorized, row *bench.Env) {
	b.Helper()
	vecCmpOnce.Do(func() {
		mk := func(disable bool) *bench.Env {
			e, err := bench.NewEnv(bench.EnvConfig{ScaleFactor: benchSF, Seed: 1,
				BroadcastThreshold: 1, DisableVectorized: disable})
			if err != nil {
				b.Fatal(err)
			}
			return e
		}
		vecCmpEnvs.vectorized = mk(false)
		vecCmpEnvs.row = mk(true)
	})
	return vecCmpEnvs.vectorized, vecCmpEnvs.row
}

// pipelineOp is the acceptance workload: filter + project + aggregate over
// person_knows_person — every operator on the batch path, no index assist.
// The projection buckets person1Id so per-row work (filter kernel, arith
// kernel, key encode, accumulate) dominates over per-group output costs.
func pipelineOp(e *bench.Env) bench.Op {
	midDate := e.Dataset.Knows[len(e.Dataset.Knows)/2][2]
	return bench.Op{Name: "FilterProjectAggregate", Run: func(g *snb.Graph) ([]indexeddf.Row, error) {
		knows := g.Knows
		if g.Indexed {
			knows = g.KnowsByP1
		}
		return knows.
			Filter(indexeddf.Gt(indexeddf.Col("creationDate"), indexeddf.Lit(midDate))).
			Select(
				indexeddf.As(indexeddf.Mod(indexeddf.Col("person1Id"), indexeddf.Lit(int64(64))), "bucket"),
				indexeddf.Col("person2Id")).
			GroupBy("bucket").
			Agg(indexeddf.CountAll(), indexeddf.Sum("person2Id"), indexeddf.Max("person2Id")).
			Collect()
	}}
}

// BenchmarkVectorizedPipeline is the headline comparison: the same
// filter+project+aggregate query on both engines. Acceptance: Vectorized
// >=2x faster and >=5x fewer allocations than RowAtATime.
func BenchmarkVectorizedPipeline(b *testing.B) {
	vec, row := vectorizedEnvs(b)
	b.Run("Vectorized/Spark", func(b *testing.B) { runOp(b, pipelineOp(vec), vec.Vanilla) })
	b.Run("RowAtATime/Spark", func(b *testing.B) { runOp(b, pipelineOp(row), row.Vanilla) })
	b.Run("Vectorized/IndexedDF", func(b *testing.B) { runOp(b, pipelineOp(vec), vec.Indexed) })
	b.Run("RowAtATime/IndexedDF", func(b *testing.B) { runOp(b, pipelineOp(row), row.Indexed) })
}

// BenchmarkVectorizedFigure2 runs every Figure 2 operator on both engines
// with vectorization on and off — the per-operator view of the same story.
func BenchmarkVectorizedFigure2(b *testing.B) {
	vec, row := vectorizedEnvs(b)
	vecOps := bench.Figure2Ops(vec)
	rowOps := bench.Figure2Ops(row)
	for i := range vecOps {
		vop, rop := vecOps[i], rowOps[i]
		b.Run(vop.Name+"/Vectorized/Spark", func(b *testing.B) { runOp(b, vop, vec.Vanilla) })
		b.Run(rop.Name+"/RowAtATime/Spark", func(b *testing.B) { runOp(b, rop, row.Vanilla) })
		b.Run(vop.Name+"/Vectorized/IndexedDF", func(b *testing.B) { runOp(b, vop, vec.Indexed) })
		b.Run(rop.Name+"/RowAtATime/IndexedDF", func(b *testing.B) { runOp(b, rop, row.Indexed) })
	}
}
