package opt

import (
	"fmt"
	"testing"

	"indexeddf/internal/catalog"
	"indexeddf/internal/core"
	"indexeddf/internal/expr"
	"indexeddf/internal/plan"
	"indexeddf/internal/sqlparser"
	"indexeddf/internal/sqltypes"
)

// snbTable builds a small statistics-carrying catalog table with the
// given Int64/String columns, indexed on column key (or vanilla when
// key < 0).
func snbTable(t *testing.T, name string, key int, cols ...string) catalog.Table {
	t.Helper()
	fields := make([]sqltypes.Field, len(cols))
	for i, c := range cols {
		typ := sqltypes.Int64
		if c == "firstName" || c == "lastName" || c == "content" || c == "title" {
			typ = sqltypes.String
		}
		fields[i] = sqltypes.Field{Name: c, Type: typ}
	}
	schema := sqltypes.NewSchema(fields...)
	rows := make([]sqltypes.Row, 64)
	for r := range rows {
		row := make(sqltypes.Row, len(cols))
		for i, f := range fields {
			if f.Type == sqltypes.String {
				row[i] = sqltypes.NewString(fmt.Sprintf("s%d", r%7))
			} else {
				row[i] = sqltypes.NewInt64(int64(r * (i + 1) % 50))
			}
		}
		rows[r] = row
	}
	if key < 0 {
		ct := catalog.NewColumnTable(name, schema, [][]sqltypes.Row{rows})
		ct.EnableStats()
		return ct
	}
	it, err := core.NewIndexedTable(schema, key, core.Options{NumPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Append(rows); err != nil {
		t.Fatal(err)
	}
	tbl := catalog.NewIndexedTable(name, it)
	tbl.EnableStats()
	return tbl
}

// fixpointPlans returns unresolved logical plans in the shapes the
// short reads (SQ1–SQ7, as built by the DataFrame API) and a few SQL
// statements produce.
func fixpointPlans(t *testing.T) map[string]plan.Node {
	t.Helper()
	person := snbTable(t, "person", 0, "id", "firstName", "lastName", "birthday", "cityId")
	knows := snbTable(t, "knows", 0, "person1Id", "person2Id", "creationDate")
	post := snbTable(t, "post", 0, "id", "creatorId", "forumId", "creationDate", "content")
	comment := snbTable(t, "comment", 0, "id", "creatorId", "replyOfPost", "creationDate", "content")
	forum := snbTable(t, "forum", 0, "id", "title", "moderatorId")
	vanilla := snbTable(t, "knows_v", -1, "person1Id", "person2Id", "creationDate")
	tables := map[string]catalog.Table{
		"person": person, "knows": knows, "post": post,
		"comment": comment, "forum": forum, "knows_v": vanilla,
	}

	rel := func(tbl catalog.Table) plan.Node { return plan.NewRelation(tbl, "") }
	eq := func(col string, v int64) expr.Expr {
		return expr.NewCmp(expr.Eq, expr.C(col), expr.LitInt64(v))
	}
	join := func(l, r plan.Node, lcol, rcol string) plan.Node {
		return plan.NewJoin(plan.InnerJoin, l, r, expr.NewCmp(expr.Eq, expr.C(lcol), expr.C(rcol)))
	}
	cols := func(child plan.Node, names ...string) plan.Node {
		exprs := make([]expr.Expr, len(names))
		for i, n := range names {
			exprs[i] = expr.C(n)
		}
		return plan.NewProject(exprs, child)
	}
	order := func(child plan.Node, desc string, asc string) plan.Node {
		return plan.NewSort([]plan.SortOrder{
			{Expr: expr.C(desc), Desc: true}, {Expr: expr.C(asc)},
		}, child)
	}

	plans := map[string]plan.Node{
		"SQ1": cols(plan.NewFilter(eq("id", 7), rel(person)),
			"firstName", "lastName", "birthday", "cityId"),
		"SQ2": cols(plan.NewFilter(eq("creatorId", 7), rel(post)),
			"id", "content", "creationDate"),
		"SQ3": order(cols(join(plan.NewFilter(eq("person1Id", 7), rel(knows)), rel(person),
			"person2Id", "person.id"),
			"person2Id", "firstName", "lastName", "knows.creationDate"),
			"creationDate", "person2Id"),
		"SQ4": cols(plan.NewFilter(eq("id", 7), rel(comment)), "creationDate", "content"),
		"SQ5": cols(join(plan.NewFilter(eq("id", 7), rel(post)), rel(person),
			"creatorId", "person.id"),
			"person.id", "firstName", "lastName"),
		"SQ6": cols(join(plan.NewFilter(eq("id", 7), rel(forum)), rel(person),
			"moderatorId", "person.id"),
			"forum.id", "title", "person.id", "firstName", "lastName"),
		"SQ7-replies": order(cols(join(plan.NewFilter(eq("replyOfPost", 7), rel(comment)), rel(person),
			"creatorId", "person.id"),
			"comment.id", "content", "comment.creationDate", "person.id", "firstName", "lastName"),
			"comment.creationDate", "comment.id"),
		"SQ7-knows": plan.NewFilter(expr.And(eq("person1Id", 7), eq("person2Id", 9)), rel(knows)),
		"stacked-limits": plan.NewLimit(3, plan.NewLimit(5, plan.NewLimit(9,
			plan.NewFilter(eq("person1Id", 7), rel(knows))))),
	}

	resolve := func(name string) (catalog.Table, error) {
		if tbl, ok := tables[name]; ok {
			return tbl, nil
		}
		return nil, fmt.Errorf("no table %q", name)
	}
	for name, q := range map[string]string{
		"sql-filter-over-join": `SELECT p.firstName, k.creationDate FROM knows k
			JOIN person p ON k.person2Id = p.id
			WHERE k.person1Id = 3 AND p.cityId > 1 AND p.firstName = 's1' AND 1 = 1`,
		"sql-three-way-join": `SELECT c.id, p.lastName, f.title FROM comment c
			JOIN post o ON c.replyOfPost = o.id
			JOIN person p ON c.creatorId = p.id
			JOIN forum f ON o.forumId = f.id
			WHERE o.creatorId = 4 AND c.creationDate > 10 AND f.moderatorId + 1 > 2`,
		"sql-order-limit": `SELECT id, firstName FROM person
			WHERE firstName = 's2' AND id > 1 + 2 ORDER BY id DESC LIMIT 3`,
		"sql-group-order-limit": `SELECT creatorId, COUNT(*) AS cnt FROM comment
			WHERE creationDate > 5 GROUP BY creatorId HAVING COUNT(*) > 1
			ORDER BY cnt DESC, creatorId LIMIT 10`,
		"sql-vanilla-filters": `SELECT person2Id FROM knows_v
			WHERE person2Id < 40 AND creationDate > 3 AND person1Id = 2 LIMIT 7`,
	} {
		n, err := sqlparser.Parse(q, resolve)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans[name] = n
	}
	return plans
}

// TestRulesReturnInputAtFixpoint pins the contract the optimizer's
// fixpoint loop relies on: applied to an already-optimized plan, every
// rule returns the identical node, and the planner's batch converges in
// at most two passes (one that rewrites, one that confirms) instead of
// running into the pass cap.
func TestRulesReturnInputAtFixpoint(t *testing.T) {
	pl := NewPlanner(DefaultPlannerConfig())
	rules := pl.rules
	if got := rules[len(rules)-1].Name; got != "ReorderFilterConjuncts" {
		t.Fatalf("planner batch ends with %s, want ReorderFilterConjuncts", got)
	}
	for name, n := range fixpointPlans(t) {
		analyzed, err := Analyze(n)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		passes := 0
		counted := append([]Rule(nil), rules...)
		first := counted[0].Apply
		counted[0].Apply = func(n plan.Node) (plan.Node, error) {
			passes++
			return first(n)
		}
		optimized, err := optimizeWith(analyzed, counted)
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		if passes > 2 {
			t.Errorf("%s: fixpoint took %d passes, want <= 2:\n%s", name, passes, plan.TreeString(optimized))
		}
		viaPlanner, err := pl.Optimize(analyzed)
		if err != nil {
			t.Fatalf("%s: Planner.Optimize: %v", name, err)
		}
		if got, want := plan.TreeString(viaPlanner), plan.TreeString(optimized); got != want {
			t.Errorf("%s: Planner.Optimize differs from its rule batch:\n%s\nvs\n%s", name, got, want)
		}
		for _, r := range rules {
			out, err := r.Apply(optimized)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, r.Name, err)
			}
			if out != optimized {
				t.Errorf("%s: %s returned a new node for an optimized plan:\n%s\nbecame\n%s",
					name, r.Name, plan.TreeString(optimized), plan.TreeString(out))
			}
		}
	}
}
