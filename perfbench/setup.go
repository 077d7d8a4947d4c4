package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"indexeddf"
	"indexeddf/internal/snb"
	"indexeddf/internal/sqltypes"
)

// env is one loaded workload: the session, its tables and what setting
// them up cost.
type env struct {
	sess *indexeddf.Session
	d    *snb.Dataset
	// g is the indexed SNB graph of the read workloads (nil on analytic).
	g *snb.Graph
	// cached names every columnar-cached base table; indexed every
	// indexed copy.
	cached  []string
	indexed []*indexeddf.DataFrame

	setup       time.Duration // generation + load + cache + index
	cacheBuild  time.Duration // DataFrame.Cache calls
	indexBuild  time.Duration // DataFrame.CreateIndexOn calls
	indexedRows int64         // rows bulk-loaded into indexed copies
}

// loader times the public load calls one setup makes.
type loader struct {
	e   *env
	err error
}

func (l *loader) table(name string, schema *sqltypes.Schema, rows []sqltypes.Row) *indexeddf.DataFrame {
	if l.err != nil {
		return nil
	}
	df, err := l.e.sess.CreateTable(name, schema, rows)
	if err != nil {
		l.err = fmt.Errorf("create %s: %w", name, err)
		return nil
	}
	t0 := time.Now()
	if _, err := df.Cache(); err != nil {
		l.err = fmt.Errorf("cache %s: %w", name, err)
		return nil
	}
	l.e.cacheBuild += time.Since(t0)
	l.e.cached = append(l.e.cached, name)
	return df
}

// index builds an indexed copy of base on col, aliased back to the base
// table's name so the SNB queries' qualified columns resolve.
func (l *loader) index(base *indexeddf.DataFrame, col, alias string) *indexeddf.DataFrame {
	if l.err != nil {
		return nil
	}
	t0 := time.Now()
	idf, err := base.CreateIndexOn(col)
	if err != nil {
		l.err = fmt.Errorf("index %s(%s): %w", alias, col, err)
		return nil
	}
	l.e.indexBuild += time.Since(t0)
	l.e.indexedRows += idf.IndexedCore().RowCount()
	l.e.indexed = append(l.e.indexed, idf)
	if idf, err = idf.As(alias); err != nil {
		l.err = err
		return nil
	}
	return idf
}

// bulkIndex creates an empty indexed table and appends rows to it — what
// CreateIndex does after collecting its input. The analytic session uses
// it because there CreateIndex's collect runs under the per-query memory
// budget, which a whole base table does not fit.
func (l *loader) bulkIndex(name string, schema *sqltypes.Schema, col string, rows []sqltypes.Row) {
	if l.err != nil {
		return
	}
	t0 := time.Now()
	idf, err := l.e.sess.CreateIndexedTable(name, schema, schema.IndexOf(col))
	if err == nil {
		_, err = idf.AppendRowsSlice(rows)
	}
	if err != nil {
		l.err = fmt.Errorf("index %s(%s): %w", name, col, err)
		return
	}
	l.e.indexBuild += time.Since(t0)
	l.e.indexedRows += int64(len(rows))
	l.e.indexed = append(l.e.indexed, idf)
}

// setupReads generates the dataset and loads the indexed SNB graph the
// short reads run on: every base table cached plus the nine indexed access
// paths snb.Load builds.
func setupReads(sf float64, seed int64, cfg indexeddf.Config) (*env, error) {
	t0 := time.Now()
	d := snb.Generate(snb.Config{ScaleFactor: sf, Seed: seed})
	e := &env{sess: indexeddf.NewSession(cfg), d: d}
	l := &loader{e: e}
	g := &snb.Graph{Sess: e.sess, Indexed: true}
	g.Person = l.table("person", snb.PersonSchema(), d.Persons)
	g.Knows = l.table("knows", snb.KnowsSchema(), d.Knows)
	g.Post = l.table("post", snb.PostSchema(), d.Posts)
	g.Comment = l.table("comment", snb.CommentSchema(), d.Comments)
	g.Forum = l.table("forum", snb.ForumSchema(), d.Forums)
	g.PersonByID = l.index(g.Person, "id", "person")
	g.KnowsByP1 = l.index(g.Knows, "person1Id", "knows")
	g.PostByID = l.index(g.Post, "id", "post")
	g.PostByCreator = l.index(g.Post, "creatorId", "post")
	g.CommentByID = l.index(g.Comment, "id", "comment")
	g.CommentByCreator = l.index(g.Comment, "creatorId", "comment")
	g.CommentByReplyP = l.index(g.Comment, "replyOfPost", "comment")
	g.CommentByReplyC = l.index(g.Comment, "replyOfComment", "comment")
	g.ForumByID = l.index(g.Forum, "id", "forum")
	if l.err != nil {
		e.sess.Close()
		return nil, l.err
	}
	e.g = g
	e.setup = time.Since(t0)
	return e, nil
}

// setupAnalytic generates the dataset and loads the tables the SQL suite
// reads: knows, person and comment cached, plus indexed copies of knows
// (knows_idx, on person1Id) and person (person_idx, on id).
func setupAnalytic(sf float64, seed int64, cfg indexeddf.Config) (*env, error) {
	t0 := time.Now()
	d := snb.Generate(snb.Config{ScaleFactor: sf, Seed: seed})
	e, err := loadAnalytic(d, cfg)
	if err != nil {
		return nil, err
	}
	e.setup = time.Since(t0)
	return e, nil
}

func loadAnalytic(d *snb.Dataset, cfg indexeddf.Config) (*env, error) {
	e := &env{sess: indexeddf.NewSession(cfg), d: d}
	l := &loader{e: e}
	l.table("knows", snb.KnowsSchema(), d.Knows)
	l.table("person", snb.PersonSchema(), d.Persons)
	l.table("comment", snb.CommentSchema(), d.Comments)
	l.bulkIndex("knows_idx", snb.KnowsSchema(), "person1Id", d.Knows)
	l.bulkIndex("person_idx", snb.PersonSchema(), "id", d.Persons)
	if l.err != nil {
		e.sess.Close()
		return nil, l.err
	}
	return e, nil
}

// indexedName returns the catalog name of base's indexed copy
// ("knows_idx"); each analytic setup indexes a base table once.
func (e *env) indexedName(base string) (string, error) {
	for _, n := range e.sess.Tables() {
		if strings.HasPrefix(n, base+"_idx") {
			return n, nil
		}
	}
	return "", fmt.Errorf("no indexed copy of %s", base)
}

// storage sums the indexed copies' memory (core.IndexedTable.MemoryUsage)
// and rows.
type storage struct {
	batch, data, index, rows int64
}

func (e *env) storage() storage {
	var s storage
	for _, df := range e.indexed {
		t := df.IndexedCore()
		b, d, i := t.MemoryUsage()
		s.batch += b
		s.data += d
		s.index += i
		s.rows += t.RowCount()
	}
	return s
}

// bytesPerRow is the resident storage per indexed row (paper §2): the
// reserved row batches, which hold the encoded rows, plus the Ctrie.
func (s storage) bytesPerRow() float64 {
	if s.rows == 0 {
		return 0
	}
	return float64(s.batch+s.index) / float64(s.rows)
}

// columnarBytesPerRow is the columnar cache's footprint per cached row.
func (e *env) columnarBytesPerRow() float64 {
	var bytes, rows int64
	for _, name := range e.cached {
		t, ok := e.sess.LookupTable(name)
		if !ok {
			continue
		}
		if m, ok := t.(interface{ MemoryUsage() int64 }); ok {
			bytes += m.MemoryUsage()
		}
		if df, err := e.sess.Table(name); err == nil {
			if n, err := df.Count(); err == nil {
				rows += n
			}
		}
	}
	if rows == 0 {
		return 0
	}
	return float64(bytes) / float64(rows)
}

// setupTimes are the per-setup measurements of one run.
type setupTimes struct {
	setupS   samples // whole setup, s
	cacheMs  samples // columnar cache builds, ms
	loadRate samples // rows per second bulk-loaded into indexed copies
}

// setupRepeated runs setup n times and keeps the last environment; the
// earlier ones are closed and dropped so the run measures one live copy.
// Each setup starts from a collected heap, as in a fresh process, so it
// does not pay for collecting the previous one's garbage.
func setupRepeated(n int, mk func() (*env, error)) (*env, setupTimes, error) {
	var st setupTimes
	var e *env
	for i := 0; i < n; i++ {
		if e != nil {
			e.sess.Close()
			e = nil
		}
		runtime.GC()
		var err error
		if e, err = mk(); err != nil {
			return nil, st, err
		}
		st.setupS.addDur(e.setup, time.Second)
		st.cacheMs.addDur(e.cacheBuild, time.Millisecond)
		st.loadRate.add(float64(e.indexedRows) / e.indexBuild.Seconds())
	}
	return e, st, nil
}
