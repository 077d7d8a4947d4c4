package indexeddf

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func personSchema() *Schema {
	return NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "name", Type: String},
		Field{Name: "city", Type: String},
		Field{Name: "age", Type: Int64},
	)
}

func knowsSchema() *Schema {
	return NewSchema(
		Field{Name: "person1Id", Type: Int64},
		Field{Name: "person2Id", Type: Int64},
		Field{Name: "since", Type: Int64},
	)
}

// newTestSession builds a session with small fixed tables:
// person: 100 people; knows: each person i knows (i+1)%100 and (i+2)%100.
func newTestSession(t *testing.T) (*Session, *DataFrame, *DataFrame) {
	t.Helper()
	s := NewSession(Config{TablePartitions: 3, ShufflePartitions: 3})
	var people []Row
	for i := 0; i < 100; i++ {
		people = append(people, R(int64(i), fmt.Sprintf("p%02d", i), []string{"ams", "sfo", "nyc"}[i%3], int64(20+i%50)))
	}
	person, err := s.CreateTable("person", personSchema(), people)
	if err != nil {
		t.Fatal(err)
	}
	var knows []Row
	for i := 0; i < 100; i++ {
		knows = append(knows, R(int64(i), int64((i+1)%100), int64(i)))
		knows = append(knows, R(int64(i), int64((i+2)%100), int64(i)))
	}
	knowsDF, err := s.CreateTable("knows", knowsSchema(), knows)
	if err != nil {
		t.Fatal(err)
	}
	return s, person, knowsDF
}

func TestCreateTableAndCollect(t *testing.T) {
	_, person, _ := newTestSession(t)
	rows, err := person.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("Collect = %d rows", len(rows))
	}
	n, err := person.Count()
	if err != nil || n != 100 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestFilterProject(t *testing.T) {
	_, person, _ := newTestSession(t)
	rows, err := person.
		Filter(Eq(Col("city"), Lit("ams"))).
		SelectCols("id", "name").
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 34 { // ids 0,3,...,99
		t.Fatalf("filtered rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r) != 2 {
			t.Fatalf("projection arity = %d", len(r))
		}
		if r[0].Int64Val()%3 != 0 {
			t.Fatalf("wrong row passed filter: %v", r)
		}
	}
}

func TestFilterComparisonsAndLogic(t *testing.T) {
	_, person, _ := newTestSession(t)
	n, err := person.Filter(And(Ge(Col("age"), Lit(30)), Lt(Col("age"), Lit(40)))).Count()
	if err != nil {
		t.Fatal(err)
	}
	// ages are 20 + i%50 for i in 0..99: each age in [20,70) appears twice.
	if n != 20 {
		t.Fatalf("range filter = %d rows, want 20", n)
	}
	n2, err := person.Filter(Or(Eq(Col("id"), Lit(1)), Eq(Col("id"), Lit(2)))).Count()
	if err != nil || n2 != 2 {
		t.Fatalf("or filter = %d, %v", n2, err)
	}
	n3, err := person.Filter(Not(Eq(Col("city"), Lit("ams")))).Count()
	if err != nil || n3 != 66 {
		t.Fatalf("not filter = %d, %v", n3, err)
	}
}

func TestOrderByLimit(t *testing.T) {
	_, person, _ := newTestSession(t)
	rows, err := person.OrderBy("-id").Limit(5).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("limit rows = %d", len(rows))
	}
	for i, r := range rows {
		if want := int64(99 - i); r[0].Int64Val() != want {
			t.Fatalf("row %d id = %d, want %d", i, r[0].Int64Val(), want)
		}
	}
	// Multi-key sort: by city asc then id desc.
	rows2, err := person.OrderBy("city", "-id").Limit(3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rows2[0][2].StringVal() != "ams" || rows2[0][0].Int64Val() != 99 {
		t.Fatalf("multi-key sort head = %v", rows2[0])
	}
}

func TestGroupByCountAndAggregates(t *testing.T) {
	_, person, _ := newTestSession(t)
	rows, err := person.GroupBy("city").Count().OrderBy("city").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	if rows[0][0].StringVal() != "ams" || rows[0][1].Int64Val() != 34 {
		t.Fatalf("ams group = %v", rows[0])
	}
	// Global aggregates.
	aggRows, err := person.Agg(CountAll(), Min("age"), Max("age"), Avg("age"), Sum("age")).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(aggRows) != 1 {
		t.Fatalf("global agg rows = %d", len(aggRows))
	}
	r := aggRows[0]
	if r[0].Int64Val() != 100 || r[1].Int64Val() != 20 || r[2].Int64Val() != 69 {
		t.Fatalf("agg row = %v", r)
	}
	if got := r[3].Float64Val(); got < 43 || got > 46 {
		t.Fatalf("avg age = %v", got)
	}
}

func TestGlobalAggOnEmptyInput(t *testing.T) {
	_, person, _ := newTestSession(t)
	rows, err := person.Filter(Eq(Col("id"), Lit(-1))).Agg(CountAll()).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int64Val() != 0 {
		t.Fatalf("count over empty = %v", rows)
	}
}

func TestVanillaJoin(t *testing.T) {
	_, person, knows := newTestSession(t)
	joined := knows.Join(person, Eq(Col("person1Id"), Col("person.id")))
	n, err := joined.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("join rows = %d, want 200", n)
	}
	// Join output carries both sides' columns.
	schema, err := joined.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if schema.Len() != 7 {
		t.Fatalf("join schema = %s", schema)
	}
}

func TestLeftOuterJoin(t *testing.T) {
	s, _, _ := newTestSession(t)
	left, err := s.CreateTable("l", NewSchema(Field{Name: "k", Type: Int64}),
		[]Row{R(1), R(2), R(3)})
	if err != nil {
		t.Fatal(err)
	}
	right, err := s.CreateTable("r", NewSchema(Field{Name: "k2", Type: Int64}, Field{Name: "v", Type: String}),
		[]Row{R(1, "one"), R(1, "uno"), R(3, "three")})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := left.LeftJoin(right, Eq(Col("k"), Col("k2"))).OrderBy("k").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("left join rows = %d, want 4", len(rows))
	}
	// Key 2 must appear with NULL right side.
	found := false
	for _, r := range rows {
		if r[0].Int64Val() == 2 {
			found = true
			if !r[1].IsNull() || !r[2].IsNull() {
				t.Fatalf("unmatched row not null-padded: %v", r)
			}
		}
	}
	if !found {
		t.Fatal("unmatched left row missing")
	}
}

// TestIndexedLeftOuterJoinShuffleMode: a LEFT OUTER join onto an indexed
// table whose probe side is shuffled to the index partitioning — NULL,
// integral-float and fractional probe keys included — returns the rows
// broadcast mode and the vanilla join return.
func TestIndexedLeftOuterJoinShuffleMode(t *testing.T) {
	var probe []Row
	for i := 0; i < 60; i++ {
		var k any = float64(i % 30)
		switch {
		case i%7 == 0:
			k = nil
		case i%11 == 0:
			k = float64(i) + 0.5
		}
		probe = append(probe, R(k, fmt.Sprintf("p%02d", i)))
	}
	var target []Row
	for i := 0; i < 40; i++ {
		target = append(target, R(int64(i%20), fmt.Sprintf("t%02d", i)))
	}
	run := func(threshold int64, indexed bool, wantPlan string) []string {
		t.Helper()
		s := NewSession(Config{TablePartitions: 4, ShufflePartitions: 3, BroadcastThreshold: threshold})
		l, err := s.CreateTable("l", NewSchema(Field{Name: "k", Type: Float64, Nullable: true}, Field{Name: "tag", Type: String}), probe)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.CreateTable("r", NewSchema(Field{Name: "k2", Type: Int64}, Field{Name: "v", Type: String}), target)
		if err != nil {
			t.Fatal(err)
		}
		if indexed {
			if r, err = r.CreateIndex(0); err != nil {
				t.Fatal(err)
			}
		}
		df := l.LeftJoin(r, Eq(Col("k"), Col("k2")))
		plan, err := df.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, wantPlan) {
			t.Fatalf("plan lacks %q:\n%s", wantPlan, plan)
		}
		rows, err := df.Collect()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(rows))
		for i, row := range rows {
			out[i] = fmt.Sprint(row)
		}
		sort.Strings(out)
		return out
	}
	want := run(1, false, "ShuffleHashJoin LeftOuter")
	if len(want) <= len(probe) {
		t.Fatalf("vanilla join returned %d rows; the fixture should match keys twice", len(want))
	}
	for _, c := range []struct {
		name      string
		threshold int64
		plan      string
	}{
		{"shuffle", 1, "IndexedJoin LeftOuter shuffle"},
		{"broadcast", 1 << 20, "IndexedJoin LeftOuter broadcast"},
	} {
		got := run(c.threshold, true, c.plan)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s indexed join differs from the vanilla join:\n got %v\nwant %v", c.name, got, want)
		}
	}
}

func TestCreateIndexAndGetRows(t *testing.T) {
	_, _, knows := newTestSession(t)
	idx, err := knows.CreateIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := idx.GetRows(42)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := got.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("GetRows(42) = %d rows, want 2", len(rows))
	}
	targets := []int64{rows[0][1].Int64Val(), rows[1][1].Int64Val()}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	if targets[0] != 43 || targets[1] != 44 {
		t.Fatalf("GetRows(42) targets = %v", targets)
	}
	// The physical plan must use the index lookup, not a scan.
	explain, err := got.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "IndexLookup") {
		t.Fatalf("explain lacks IndexLookup:\n%s", explain)
	}
}

func TestEqualityFilterUsesIndexOnlyOnKeyColumn(t *testing.T) {
	_, _, knows := newTestSession(t)
	idx, err := knows.CreateIndexOn("person1Id")
	if err != nil {
		t.Fatal(err)
	}
	onKey, err := idx.Filter(Eq(Col("person1Id"), Lit(7))).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(onKey, "IndexLookup") {
		t.Fatalf("filter on key column did not use index:\n%s", onKey)
	}
	offKey, err := idx.Filter(Eq(Col("person2Id"), Lit(7))).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(offKey, "IndexLookup") {
		t.Fatalf("filter on non-key column used index:\n%s", offKey)
	}
	if !strings.Contains(offKey, "IndexedScan") {
		t.Fatalf("fallback is not an indexed scan:\n%s", offKey)
	}
}

func TestIndexLookupWithResidual(t *testing.T) {
	_, _, knows := newTestSession(t)
	idx, err := knows.CreateIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := idx.Filter(And(Eq(Col("person1Id"), Lit(42)), Eq(Col("person2Id"), Lit(43)))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1].Int64Val() != 43 {
		t.Fatalf("residual-filtered lookup = %v", rows)
	}
}

func TestIndexedJoinMatchesVanillaJoin(t *testing.T) {
	_, person, knows := newTestSession(t)
	idx, err := knows.CreateIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	indexed := idx.Join(person, Eq(Col("person1Id"), Col("person.id")))
	explain, err := indexed.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "IndexedJoin") {
		t.Fatalf("explain lacks IndexedJoin:\n%s", explain)
	}
	gotRows, err := indexed.Collect()
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := knows.Join(person, Eq(Col("person1Id"), Col("person.id"))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("indexed join %d rows, vanilla %d", len(gotRows), len(wantRows))
	}
	if canon(gotRows) != canon(wantRows) {
		t.Fatal("indexed join result differs from vanilla join")
	}
}

// canon renders rows order-independently.
func canon(rows []Row) string {
	strs := make([]string, len(rows))
	for i, r := range rows {
		strs[i] = r.String()
	}
	sort.Strings(strs)
	return strings.Join(strs, "\n")
}

func TestIndexedJoinProbeOnEitherSide(t *testing.T) {
	_, person, knows := newTestSession(t)
	idx, err := knows.CreateIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	// Indexed side on the right.
	j := person.Join(idx, Eq(Col("person.id"), Col("person1Id")))
	explain, err := j.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "IndexedJoin") {
		t.Fatalf("right-side indexed join not triggered:\n%s", explain)
	}
	n, err := j.Count()
	if err != nil || n != 200 {
		t.Fatalf("right-side indexed join = %d rows, %v", n, err)
	}
	// Column order: person columns first.
	rows, _ := j.Limit(1).Collect()
	if len(rows[0]) != 7 {
		t.Fatalf("join width = %d", len(rows[0]))
	}
}

func TestAppendRowsVisibleToNewQueries(t *testing.T) {
	_, _, knows := newTestSession(t)
	idx, err := knows.CreateIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	before, err := idx.GetRows(7)
	if err != nil {
		t.Fatal(err)
	}
	nBefore, _ := before.Count()

	if _, err := idx.AppendRowsSlice([]Row{R(int64(7), int64(55), int64(999))}); err != nil {
		t.Fatal(err)
	}
	after, err := idx.GetRows(7)
	if err != nil {
		t.Fatal(err)
	}
	nAfter, _ := after.Count()
	if nAfter != nBefore+1 {
		t.Fatalf("append not visible: %d -> %d", nBefore, nAfter)
	}
	// Total count includes the append.
	total, err := idx.Count()
	if err != nil || total != 201 {
		t.Fatalf("total after append = %d, %v", total, err)
	}
}

func TestAppendRowsFromDataFrame(t *testing.T) {
	s, _, knows := newTestSession(t)
	idx, err := knows.CreateIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	updates, err := s.CreateTable("updates", knowsSchema(),
		[]Row{R(int64(1), int64(90), int64(100)), R(int64(1), int64(91), int64(101))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.AppendRows(updates); err != nil {
		t.Fatal(err)
	}
	rows, err := idx.GetRows(1)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := rows.Count()
	if n != 4 {
		t.Fatalf("GetRows(1) after append = %d, want 4", n)
	}
}

func TestCacheVanillaTable(t *testing.T) {
	_, person, _ := newTestSession(t)
	cached, err := person.Cache()
	if err != nil {
		t.Fatal(err)
	}
	n, err := cached.Count()
	if err != nil || n != 100 {
		t.Fatalf("cached count = %d, %v", n, err)
	}
	// Appends invalidate and rebuild transparently.
	if _, err := cached.AppendRowsSlice([]Row{R(int64(100), "new", "ams", int64(30))}); err != nil {
		t.Fatal(err)
	}
	n2, err := cached.Count()
	if err != nil || n2 != 101 {
		t.Fatalf("count after append = %d, %v", n2, err)
	}
}

func TestDerivedCache(t *testing.T) {
	_, person, _ := newTestSession(t)
	derived, err := person.Filter(Eq(Col("city"), Lit("ams"))).Cache()
	if err != nil {
		t.Fatal(err)
	}
	n, err := derived.Count()
	if err != nil || n != 34 {
		t.Fatalf("derived cache count = %d, %v", n, err)
	}
}

func TestUnionAndDistinct(t *testing.T) {
	_, person, _ := newTestSession(t)
	u := person.Union(person)
	n, err := u.Count()
	if err != nil || n != 200 {
		t.Fatalf("union count = %d, %v", n, err)
	}
	d, err := u.Distinct()
	if err != nil {
		t.Fatal(err)
	}
	nd, err := d.Count()
	if err != nil || nd != 100 {
		t.Fatalf("distinct count = %d, %v", nd, err)
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	_, _, knows := newTestSession(t)
	k1, err := knows.As("k1")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := knows.As("k2")
	if err != nil {
		t.Fatal(err)
	}
	// Friends of friends: k1.person2Id = k2.person1Id.
	fof := k1.Join(k2, Eq(Col("k1.person2Id"), Col("k2.person1Id")))
	n, err := fof.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 { // 200 edges x 2 outgoing each
		t.Fatalf("friends-of-friends = %d, want 400", n)
	}
}

func TestShowAndExplain(t *testing.T) {
	_, person, _ := newTestSession(t)
	out, err := person.OrderBy("id").Show(3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "p00") || !strings.Contains(out, "id") {
		t.Fatalf("Show output:\n%s", out)
	}
	explain, err := person.Filter(Gt(Col("age"), Lit(30))).Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Analyzed", "Optimized", "Physical", "ColumnarScan", "Filter"} {
		if !strings.Contains(explain, want) {
			t.Fatalf("explain missing %q:\n%s", want, explain)
		}
	}
}

func TestExpressionProjection(t *testing.T) {
	_, person, _ := newTestSession(t)
	rows, err := person.
		Filter(Eq(Col("id"), Lit(5))).
		Select(As(Add(Col("age"), Lit(1)), "age1"), As(Fn("upper", Col("name")), "uname")).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int64Val() != 26 || rows[0][1].StringVal() != "P05" {
		t.Fatalf("expression projection = %v", rows)
	}
}

func TestSessionTableManagement(t *testing.T) {
	s, _, _ := newTestSession(t)
	if _, err := s.Table("person"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table("missing"); err == nil {
		t.Fatal("missing table lookup succeeded")
	}
	if _, err := s.CreateTable("person", personSchema(), nil); err == nil {
		t.Fatal("duplicate table name accepted")
	}
	s.DropTable("person")
	if _, err := s.Table("person"); err == nil {
		t.Fatal("dropped table still visible")
	}
	if len(s.Tables()) == 0 {
		t.Fatal("Tables() empty")
	}
}

func TestSnapshotIsolationDuringQuery(t *testing.T) {
	// A query that holds a snapshot must not see appends that land midway.
	_, _, knows := newTestSession(t)
	idx, err := knows.CreateIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	core := idx.IndexedCore()
	if core == nil {
		t.Fatal("IndexedCore nil")
	}
	snap := core.Snapshot()
	if _, err := idx.AppendRowsSlice([]Row{R(int64(42), int64(77), int64(1))}); err != nil {
		t.Fatal(err)
	}
	rows, err := snap.GetRows(V(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("snapshot sees %d rows for key 42, want 2 (pre-append)", len(rows))
	}
	// New snapshot sees 3.
	rows2, err := core.Snapshot().GetRows(V(42))
	if err != nil || len(rows2) != 3 {
		t.Fatalf("fresh snapshot sees %d rows, %v", len(rows2), err)
	}
}
