package snb

import (
	"sort"

	"indexeddf"
	"indexeddf/internal/sqltypes"
)

// The seven SNB simple read queries (the paper's SQ1–SQ7; LDBC interactive
// short reads IS1–IS7). Every query runs through the public DataFrame API,
// so the only difference between engines is which physical operators the
// index-aware rules select.

// IS1 — profile of a person: given a person id, fetch firstName, lastName,
// birthday, locationIP, browserUsed, cityId, gender, creationDate.
func IS1(g *Graph, personID int64) ([]sqltypes.Row, error) {
	return g.personFrame().
		Filter(indexeddf.Eq(indexeddf.Col("id"), indexeddf.Lit(personID))).
		SelectCols("firstName", "lastName", "birthday", "locationIP",
			"browserUsed", "cityId", "gender", "creationDate").
		Collect()
}

// IS2 — recent messages of a person: the person's 10 newest messages with,
// for comments, the root post and its author. Output: messageId, content,
// creationDate, rootPostId, rootAuthorId, rootAuthorFirst, rootAuthorLast.
func IS2(g *Graph, personID int64) ([]sqltypes.Row, error) {
	eq := func(col string) indexeddf.Expr {
		return indexeddf.Eq(indexeddf.Col(col), indexeddf.Lit(personID))
	}
	posts, err := g.postByCreatorFrame().Filter(eq("creatorId")).
		SelectCols("id", "content", "creationDate").
		Collect()
	if err != nil {
		return nil, err
	}
	comments, err := g.commentByCreatorFrame().Filter(eq("creatorId")).
		SelectCols("id", "content", "creationDate").
		Collect()
	if err != nil {
		return nil, err
	}
	type msg struct {
		row    sqltypes.Row
		isPost bool
	}
	all := make([]msg, 0, len(posts)+len(comments))
	for _, r := range posts {
		all = append(all, msg{row: r, isPost: true})
	}
	for _, r := range comments {
		all = append(all, msg{row: r})
	}
	// Newest first, id desc ties.
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].row, all[j].row
		if c := sqltypes.Compare(a[2], b[2]); c != 0 {
			return c > 0
		}
		return sqltypes.Compare(a[0], b[0]) > 0
	})
	if len(all) > 10 {
		all = all[:10]
	}
	out := make([]sqltypes.Row, 0, len(all))
	for _, m := range all {
		var root sqltypes.Row
		if m.isPost {
			root, err = g.lookupPost(m.row[0].Int64Val())
		} else {
			var cRow sqltypes.Row
			cRow, err = g.lookupComment(m.row[0].Int64Val())
			if err == nil && cRow != nil {
				root, err = g.rootPost(cRow)
			}
		}
		if err != nil {
			return nil, err
		}
		if root == nil {
			continue
		}
		author, err := IS1(g, root[1].Int64Val())
		if err != nil {
			return nil, err
		}
		first, last := sqltypes.Null, sqltypes.Null
		if len(author) > 0 {
			first, last = author[0][0], author[0][1]
		}
		out = append(out, sqltypes.Row{
			m.row[0], m.row[1], m.row[2], root[0], root[1], first, last,
		})
	}
	return out, nil
}

// IS3 — friends of a person: all persons the given person knows, with the
// friendship creation date, newest friendships first.
func IS3(g *Graph, personID int64) ([]sqltypes.Row, error) {
	return g.knowsFrame().
		Filter(indexeddf.Eq(indexeddf.Col("person1Id"), indexeddf.Lit(personID))).
		Join(g.personFrame(), indexeddf.Eq(indexeddf.Col("person2Id"), indexeddf.Col("person.id"))).
		SelectCols("person2Id", "firstName", "lastName", "knows.creationDate").
		OrderBy("-creationDate", "person2Id").
		Collect()
}

// IS4 — content of a message: given a message id, its creationDate and
// content.
func IS4(g *Graph, messageID int64) ([]sqltypes.Row, error) {
	frame := g.postByIDFrame()
	if messageID >= CommentIDBase {
		frame = g.commentByIDFrame()
	}
	return frame.
		Filter(indexeddf.Eq(indexeddf.Col("id"), indexeddf.Lit(messageID))).
		SelectCols("creationDate", "content").
		Collect()
}

// IS5 — creator of a message: given a message id, its author's id and name.
func IS5(g *Graph, messageID int64) ([]sqltypes.Row, error) {
	frame := g.postByIDFrame()
	if messageID >= CommentIDBase {
		frame = g.commentByIDFrame()
	}
	return frame.
		Filter(indexeddf.Eq(indexeddf.Col("id"), indexeddf.Lit(messageID))).
		Join(g.personFrame(), indexeddf.Eq(indexeddf.Col("creatorId"), indexeddf.Col("person.id"))).
		SelectCols("person.id", "firstName", "lastName").
		Collect()
}

// IS6 — forum of a message: walk a comment's reply chain to the root post,
// then return the containing forum and its moderator.
func IS6(g *Graph, messageID int64) ([]sqltypes.Row, error) {
	msg, isPost, err := g.lookupMessage(messageID)
	if err != nil || msg == nil {
		return nil, err
	}
	post := msg
	if !isPost {
		post, err = g.rootPost(msg)
		if err != nil || post == nil {
			return nil, err
		}
	}
	forumID := post[2].Int64Val()
	return g.forumFrame().
		Filter(indexeddf.Eq(indexeddf.Col("id"), indexeddf.Lit(forumID))).
		Join(g.personFrame(), indexeddf.Eq(indexeddf.Col("moderatorId"), indexeddf.Col("person.id"))).
		SelectCols("forum.id", "title", "person.id", "firstName", "lastName").
		Collect()
}

// IS7 — replies to a message: all comments replying to it, each with its
// author and whether that author knows the original message's author.
// Output: commentId, content, creationDate, authorId, firstName, lastName,
// knowsOriginalAuthor.
func IS7(g *Graph, messageID int64) ([]sqltypes.Row, error) {
	msg, _, err := g.lookupMessage(messageID)
	if err != nil || msg == nil {
		return nil, err
	}
	origAuthor := msg[1].Int64Val()
	var replies *indexeddf.DataFrame
	if messageID >= CommentIDBase {
		frame := g.Comment
		if g.Indexed {
			frame = g.CommentByReplyC
		}
		replies = frame.Filter(indexeddf.Eq(indexeddf.Col("replyOfComment"), indexeddf.Lit(messageID)))
	} else {
		frame := g.Comment
		if g.Indexed {
			frame = g.CommentByReplyP
		}
		replies = frame.Filter(indexeddf.Eq(indexeddf.Col("replyOfPost"), indexeddf.Lit(messageID)))
	}
	rows, err := replies.
		Join(g.personFrame(), indexeddf.Eq(indexeddf.Col("creatorId"), indexeddf.Col("person.id"))).
		SelectCols("comment.id", "content", "comment.creationDate", "person.id", "firstName", "lastName").
		OrderBy("-comment.creationDate", "comment.id").
		Collect()
	if err != nil {
		return nil, err
	}
	out := make([]sqltypes.Row, 0, len(rows))
	for _, r := range rows {
		authorID := r[3].Int64Val()
		knows, err := g.knowsFrame().
			Filter(indexeddf.And(
				indexeddf.Eq(indexeddf.Col("person1Id"), indexeddf.Lit(authorID)),
				indexeddf.Eq(indexeddf.Col("person2Id"), indexeddf.Lit(origAuthor)))).
			Collect()
		if err != nil {
			return nil, err
		}
		out = append(out, append(r.Clone(), sqltypes.NewBool(len(knows) > 0)))
	}
	return out, nil
}

// Query identifies one of the seven short reads.
type Query struct {
	Name string
	// Run executes the query against g with the given parameter id.
	Run func(g *Graph, id int64) ([]sqltypes.Row, error)
	// ParamKind selects the parameter domain: "person" or "message".
	ParamKind string
	// Ordered marks a query whose output is sorted (IS2, IS3, IS7).
	Ordered bool
}

// Queries lists SQ1–SQ7 in paper order.
func Queries() []Query {
	return []Query{
		{Name: "SQ1", Run: IS1, ParamKind: "person"},
		{Name: "SQ2", Run: IS2, ParamKind: "person", Ordered: true},
		{Name: "SQ3", Run: IS3, ParamKind: "person", Ordered: true},
		{Name: "SQ4", Run: IS4, ParamKind: "message"},
		{Name: "SQ5", Run: IS5, ParamKind: "message"},
		{Name: "SQ6", Run: IS6, ParamKind: "message"},
		{Name: "SQ7", Run: IS7, ParamKind: "message", Ordered: true},
	}
}

// DefaultParams picks deterministic query parameters from the dataset:
// n person ids and n message ids (alternating posts and comments).
func DefaultParams(d *Dataset, n int) map[string][]int64 {
	persons := make([]int64, 0, n)
	for i := 0; i < n && i < len(d.Persons); i++ {
		persons = append(persons, d.Persons[(i*37)%len(d.Persons)][0].Int64Val())
	}
	messages := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 && len(d.Posts) > 0 {
			messages = append(messages, d.Posts[(i*31)%len(d.Posts)][0].Int64Val())
		} else if len(d.Comments) > 0 {
			messages = append(messages, d.Comments[(i*29)%len(d.Comments)][0].Int64Val())
		}
	}
	return map[string][]int64{"person": persons, "message": messages}
}

// FriendsOfFriendsTop is a complex-read-style workload beyond the seven
// short reads (in the spirit of LDBC interactive complex query 3): the most
// frequently reachable people within two hops of a person, excluding the
// person, ranked by path count. Exercises a self-join on the knows table —
// the join-intensive graph navigation the paper's introduction motivates.
func FriendsOfFriendsTop(g *Graph, personID int64, limit int64) ([]sqltypes.Row, error) {
	k1, err := g.knowsFrame().As("k1")
	if err != nil {
		return nil, err
	}
	k2, err := g.knowsFrame().As("k2")
	if err != nil {
		return nil, err
	}
	return k1.
		Filter(indexeddf.Eq(indexeddf.Col("k1.person1Id"), indexeddf.Lit(personID))).
		Join(k2, indexeddf.Eq(indexeddf.Col("k1.person2Id"), indexeddf.Col("k2.person1Id"))).
		Filter(indexeddf.Ne(indexeddf.Col("k2.person2Id"), indexeddf.Lit(personID))).
		GroupBy("k2.person2Id").Count().
		OrderBy("-count", "person2Id").
		Limit(limit).
		Collect()
}
