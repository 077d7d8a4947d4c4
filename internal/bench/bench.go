// Package bench hosts the shared experiment harness that regenerates the
// paper's evaluation: Figure 2 (SQL operator microbenchmarks on
// person_knows_person, Indexed DataFrame vs vanilla) and Figure 3 (the
// seven SNB simple reads on both engines), plus the memory-overhead
// claim and our ablations. Both `go test -bench` and cmd/benchrunner
// drive it. Every benchrunner figure is a list of Workloads measured by
// Workload.Measure: one cross-check of the arms' result rows, then one
// timing loop per arm (harness.go).
package bench

import (
	"fmt"

	"indexeddf"
	"indexeddf/internal/snb"
)

// Env is one loaded experiment environment: the same dataset in a vanilla
// session and an indexed session.
type Env struct {
	Dataset *snb.Dataset
	Vanilla *snb.Graph
	Indexed *snb.Graph
	Params  map[string][]int64
}

// EnvConfig parameterizes environment construction.
type EnvConfig struct {
	ScaleFactor float64
	Seed        int64
	// BroadcastThreshold configures both sessions. Figure 2 runs in the
	// paper's cluster regime where base tables are too large to broadcast
	// (threshold 1); Figure 3 uses the default.
	BroadcastThreshold int64
	// TablePartitions sets partition counts (default 4).
	TablePartitions int
	// DisableVectorized forces both engines onto the row-at-a-time path
	// (the BenchmarkVectorized* families compare against it).
	DisableVectorized bool
}

// NewEnv generates the dataset once and loads it into both engines.
func NewEnv(cfg EnvConfig) (*Env, error) {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = 1
	}
	d := snb.Generate(snb.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	mk := func(indexed bool) (*snb.Graph, error) {
		sess := indexeddf.NewSession(indexeddf.Config{
			BroadcastThreshold: cfg.BroadcastThreshold,
			TablePartitions:    cfg.TablePartitions,
			DisableVectorized:  cfg.DisableVectorized,
		})
		return snb.Load(sess, d, indexed)
	}
	v, err := mk(false)
	if err != nil {
		return nil, err
	}
	ix, err := mk(true)
	if err != nil {
		return nil, err
	}
	return &Env{Dataset: d, Vanilla: v, Indexed: ix, Params: snb.DefaultParams(d, 8)}, nil
}

// Op is one benchmarked operation, runnable against either engine.
type Op struct {
	Name string
	// Ordered marks an op whose output is sorted, so engines must agree
	// on the order too.
	Ordered bool
	Run     func(g *snb.Graph) ([]indexeddf.Row, error)
}

// Figure2Ops returns the paper's six SQL operators over
// person_knows_person (join against person), in figure order. The ops
// read e when they run, so e may be loaded after they are built.
func Figure2Ops(e *Env) []Op {
	// Fixed, deterministic parameters derived from the dataset.
	eqKey := func() int64 { return e.Dataset.Persons[len(e.Dataset.Persons)/3][0].Int64Val() }
	// Range splitting knows roughly in half: median creationDate.
	midDate := func() indexeddf.Value { return e.Dataset.Knows[len(e.Dataset.Knows)/2][2] }

	knows := func(g *snb.Graph) *indexeddf.DataFrame {
		if g.Indexed {
			return g.KnowsByP1
		}
		return g.Knows
	}
	person := func(g *snb.Graph) *indexeddf.DataFrame {
		if g.Indexed {
			return g.PersonByID
		}
		return g.Person
	}
	return []Op{
		{Name: "Join", Run: func(g *snb.Graph) ([]indexeddf.Row, error) {
			// knows JOIN person ON person1Id = person.id: the indexed
			// relation is the pre-built build side; vanilla shuffles.
			return knows(g).Join(person(g),
				indexeddf.Eq(indexeddf.Col("person1Id"), indexeddf.Col("person.id"))).Collect()
		}},
		{Name: "Filter", Run: func(g *snb.Graph) ([]indexeddf.Row, error) {
			// Non-equality predicate: no index applies on either engine.
			return knows(g).Filter(
				indexeddf.Gt(indexeddf.Col("creationDate"), indexeddf.Lit(midDate()))).Collect()
		}},
		{Name: "EqualityFilter", Run: func(g *snb.Graph) ([]indexeddf.Row, error) {
			return knows(g).Filter(
				indexeddf.Eq(indexeddf.Col("person1Id"), indexeddf.Lit(eqKey()))).Collect()
		}},
		{Name: "Aggregation", Run: func(g *snb.Graph) ([]indexeddf.Row, error) {
			return knows(g).GroupBy("person1Id").Count().Collect()
		}},
		{Name: "Projection", Run: func(g *snb.Graph) ([]indexeddf.Row, error) {
			return knows(g).SelectCols("person2Id").Collect()
		}},
		{Name: "Scan", Run: func(g *snb.Graph) ([]indexeddf.Row, error) {
			return knows(g).Collect()
		}},
	}
}

// Figure3Ops returns the seven SNB simple reads, each running its full
// parameter set (read from e when the op runs).
func Figure3Ops(e *Env) []Op {
	var ops []Op
	for _, q := range snb.Queries() {
		ops = append(ops, Op{Name: q.Name, Ordered: q.Ordered, Run: func(g *snb.Graph) ([]indexeddf.Row, error) {
			var out []indexeddf.Row
			for _, id := range e.Params[q.ParamKind] {
				rows, err := q.Run(g, id)
				if err != nil {
					return nil, fmt.Errorf("%s(%d): %w", q.Name, id, err)
				}
				out = append(out, rows...)
			}
			return out, nil
		}})
	}
	return ops
}

// Compare returns one workload per op, timing it on the vanilla engine
// and then on the indexed one (arms "vanilla" and "indexed").
func Compare(e *Env, ops []Op) []Workload {
	ws := make([]Workload, len(ops))
	for i, op := range ops {
		arm := func(name string, g func() *snb.Graph) Arm {
			return Arm{Name: name, Rows: func() ([]indexeddf.Row, error) { return op.Run(g()) }}
		}
		ws[i] = Workload{Name: op.Name, Ordered: op.Ordered, Arms: []Arm{
			arm("vanilla", func() *snb.Graph { return e.Vanilla }),
			arm("indexed", func() *snb.Graph { return e.Indexed }),
		}}
	}
	return ws
}

// MemoryReport quantifies the paper's memory-overhead claim: the indexed
// representation's bytes relative to the vanilla columnar cache.
type MemoryReport struct {
	ColumnarBytes int64
	BatchBytes    int64 // reserved row-batch bytes
	DataBytes     int64 // encoded row payloads
	IndexBytes    int64 // Ctrie estimate
	IndexedCopies int
	// OverheadPerCopy is (batch+index) / columnar: what the indexed copy
	// actually holds — its reserved row batches, including their unused
	// tails, plus the Ctrie — per byte of columnar cache.
	OverheadPerCopy float64
}

// Memory computes the report for the knows table (the Figure 2 subject).
func Memory(e *Env) MemoryReport {
	var r MemoryReport
	if t, ok := e.Vanilla.Sess.LookupTable("knows"); ok {
		if ct, ok2 := t.(interface{ MemoryUsage() int64 }); ok2 {
			r.ColumnarBytes = ct.MemoryUsage()
		}
	}
	core := e.Indexed.KnowsByP1.IndexedCore()
	if core != nil {
		r.BatchBytes, r.DataBytes, r.IndexBytes = core.MemoryUsage()
	}
	r.IndexedCopies = 1
	if r.ColumnarBytes > 0 {
		r.OverheadPerCopy = float64(r.BatchBytes+r.IndexBytes) / float64(r.ColumnarBytes)
	}
	return r
}

// KVSession returns a session over the columnar-cached table t(k, v
// BIGINT) of n rows, row i holding kv(i): the table the shuffle, sort,
// memory-accounting and observability figures query.
func KVSession(cfg indexeddf.Config, n int, kv func(i int) (k, v int64)) (*indexeddf.Session, error) {
	sess := indexeddf.NewSession(cfg)
	schema := indexeddf.NewSchema(
		indexeddf.Field{Name: "k", Type: indexeddf.Int64},
		indexeddf.Field{Name: "v", Type: indexeddf.Int64},
	)
	data := make([]indexeddf.Row, n)
	for i := range data {
		data[i] = indexeddf.R(kv(i))
	}
	df, err := sess.CreateTable("t", schema, data)
	if err != nil {
		return nil, err
	}
	_, err = df.Cache()
	return sess, err
}

// Collect runs query on sess and returns every result row.
func Collect(sess *indexeddf.Session, query string) ([]indexeddf.Row, error) {
	df, err := sess.SQL(query)
	if err != nil {
		return nil, err
	}
	return df.Collect()
}
