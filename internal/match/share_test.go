package match

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// These tests lock the copy-once output path: chunk shares gathered into
// one child table must equal the unchunked join byte for byte, every
// gathered column must be exact-size, the closing-edge grouping and
// bitset probe must not change which rows survive, and pooled shares must
// never leak into a returned table.

// randomLevel2 draws a random 2-edge parent (a single edge extended by a
// new variable in either direction) and a random child of it: a new
// variable off any bound variable, or a closing edge between any two
// distinct variables in either direction, concrete or wildcard.
func randomLevel2(r *rand.Rand) (*pattern.Pattern, *pattern.Pattern) {
	labels := []string{"a", "b", "c", pattern.Wildcard}
	p1 := pattern.SingleEdge(labels[r.Intn(4)], labels[r.Intn(3)], labels[r.Intn(4)])
	p2 := p1.ExtendNewNode(r.Intn(2), labels[r.Intn(3)], labels[r.Intn(4)], r.Intn(2) == 0)
	if r.Intn(2) == 0 {
		return p2, p2.ExtendNewNode(r.Intn(3), labels[r.Intn(4)], labels[r.Intn(4)], r.Intn(2) == 0)
	}
	src := r.Intn(3)
	dst := (src + 1 + r.Intn(2)) % 3
	return p2, p2.ExtendClosingEdge(src, dst, labels[r.Intn(4)])
}

// randomCuts returns ascending chunk offsets 0 = c_0 < ... < c_k = rows,
// possibly with empty chunks (c_i == c_{i+1}), as gatherShares' offs.
func randomCuts(r *rand.Rand, rows int) []int {
	cuts := []int{0}
	for i := r.Intn(5); i > 0; i-- {
		cuts = append(cuts, r.Intn(rows+1))
	}
	slices.Sort(cuts[1:])
	return append(cuts, rows)
}

// gatherChunked joins t chunk by chunk at cuts and gathers the shares:
// the ChunkedExtend path with the chunk boundaries chosen by the caller.
func gatherChunked(views []graph.View, t *Table, child *pattern.Pattern, cuts []int) *Table {
	shares := make([]*Share, len(cuts)-1)
	for c := range shares {
		shares[c] = computeShare(views, t.Slice(cuts[c], cuts[c+1]), child)
	}
	out := gatherShares(t, child, shares, cuts)
	for _, sh := range shares {
		sh.Release()
	}
	return out
}

// exactSize reports whether every column of t has cap == len.
func exactSize(t *Table) bool {
	for _, col := range t.cols {
		if cap(col) != len(col) {
			return false
		}
	}
	return true
}

// TestChunkGatherDifferential: for random chunk cuts, gathering the chunk
// shares equals the unchunked join byte for byte — new-variable children,
// closing edges in both directions, wildcard edges, and multi-view joins
// (including the index-merge path of a self-computing view).
func TestChunkGatherDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 6+r.Intn(12))
		p2, child := randomLevel2(r)
		e0 := p2.Edges[0]
		p1 := pattern.SingleEdge(p2.NodeLabels[e0.Src], e0.Label, p2.NodeLabels[e0.Dst])
		t2 := ExtendRows(g, EdgeMatches(g, p1, nil), p2)
		var views []graph.View
		switch r.Intn(3) {
		case 0:
			views = []graph.View{g}
		case 1:
			views = splitViews(g, 1+r.Intn(3))
		default:
			// One self-computing view switches to the index-merge path.
			views = splitViews(g, 2+r.Intn(2))
			i := r.Intn(len(views))
			views[i] = batchShim{views[i]}
		}
		cuts := randomCuts(r, t2.Len())
		got := gatherChunked(views, t2, child, cuts)
		want := extendRowsViewsRef(plainViews(views), t2, child)
		return tablesIdentical(got, want) && tablesIdentical(extendRowsViews(views, t2, child), want) && exactSize(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// plainViews unwraps batchShim views for the reference kernel, which
// probes every view edge by edge.
func plainViews(views []graph.View) []graph.View {
	out := make([]graph.View, len(views))
	for i, v := range views {
		if s, ok := v.(batchShim); ok {
			v = s.View
		}
		out[i] = v
	}
	return out
}

// TestExtendExactSize: every column of a gathered child table has
// cap == len, whole or chunked, new-variable or closing.
func TestExtendExactSize(t *testing.T) {
	g := dataset.Synthetic(dataset.SyntheticConfig{Nodes: 800, Edges: 4000, Seed: 5, Skew: 1.1})
	tr := graph.NewStats(g).FrequentTriples(1)[0]
	parent := pattern.SingleEdge(pattern.Wildcard, tr.EdgeLabel, pattern.Wildcard)
	child := parent.ExtendNewNode(0, tr.EdgeLabel, pattern.Wildcard, true)
	t2 := ExtendRows(g, EdgeMatches(g, parent, nil), child)
	closing := child.ExtendClosingEdge(2, 1, tr.EdgeLabel)
	grand := child.ExtendNewNode(2, tr.EdgeLabel, pattern.Wildcard, true)
	if t2.Len() == 0 || !exactSize(t2) {
		t.Fatalf("level-2 table: %d rows, exact-size %v", t2.Len(), exactSize(t2))
	}
	cuts := []int{0, t2.Len() / 3, t2.Len() / 2, t2.Len()}
	for _, c := range []*pattern.Pattern{closing, grand} {
		whole := ExtendRows(g, t2, c)
		chunked := gatherChunked([]graph.View{g}, t2, c, cuts)
		if !exactSize(whole) || !exactSize(chunked) {
			t.Fatalf("child %v: gathered columns not exact-size", c.Edges)
		}
		if !tablesIdentical(whole, chunked) {
			t.Fatalf("child %v: chunked gather diverges from the whole join", c.Edges)
		}
	}
}

// TestClosingEdgePaths compares closing-edge filtering against the
// row-at-a-time reference on a Zipf hub graph, with cases chosen so that
// the source-grouped path, the destination-grouped path and the bitset
// probe each run — the test fails if a path is never taken.
func TestClosingEdgePaths(t *testing.T) {
	g := dataset.Synthetic(dataset.SyntheticConfig{Nodes: 1500, Edges: 9000, Seed: 11, Skew: 1.2})
	var srcGrouped, dstGrouped, bitsetRuns int
	for _, tr := range graph.NewStats(g).FrequentTriples(1)[:3] {
		parent := pattern.SingleEdge(pattern.Wildcard, tr.EdgeLabel, pattern.Wildcard)
		for _, out := range []bool{true, false} {
			child := parent.ExtendNewNode(0, tr.EdgeLabel, pattern.Wildcard, out)
			t2 := ExtendRows(g, EdgeMatches(g, parent, nil), child)
			for _, ends := range [][2]int{{2, 0}, {0, 2}, {2, 1}, {1, 2}, {1, 0}} {
				closing := child.ExtendClosingEdge(ends[0], ends[1], tr.EdgeLabel)
				srcCol, dstCol := t2.Col(ends[0]), t2.Col(ends[1])
				srcRuns, dstRuns := runCounts(srcCol, dstCol)
				key, outgoing := srcCol, true
				if dstRuns < srcRuns {
					dstGrouped++
					key, outgoing = dstCol, false
				} else {
					srcGrouped++
				}
				l, _ := g.LookupLabel(tr.EdgeLabel)
				for lo := 0; lo < len(key); {
					hi := lo + 1
					for hi < len(key) && key[hi] == key[lo] {
						hi++
					}
					adj := g.OutTo(key[lo], l)
					if !outgoing {
						adj = g.InFrom(key[lo], l)
					}
					if bitsetProbe(hi-lo, len(adj)) {
						bitsetRuns++
					}
					lo = hi
				}
				got, want := ExtendRows(g, t2, closing), ExtendRowsRef(g, t2, closing)
				if !tablesIdentical(got, want) {
					t.Fatalf("closing edge %v after %v: %d rows, reference %d", ends, child.Edges, got.Len(), want.Len())
				}
				views := splitViews(g, 3)
				if !tablesIdentical(extendRowsViews(views, t2, closing), extendRowsViewsRef(views, t2, closing)) {
					t.Fatalf("closing edge %v after %v: multi-view join diverges", ends, child.Edges)
				}
			}
		}
	}
	t.Logf("%d src-grouped, %d dst-grouped cases, %d bitset runs", srcGrouped, dstGrouped, bitsetRuns)
	if srcGrouped == 0 || dstGrouped == 0 || bitsetRuns == 0 {
		t.Fatalf("path coverage: %d src-grouped, %d dst-grouped cases, %d bitset runs", srcGrouped, dstGrouped, bitsetRuns)
	}
}

// TestSharePoolSafety: concurrent joins on shared parents, all drawing
// shares from one pool, leave every earlier result untouched and each
// compute the reference table. Run under -race.
func TestSharePoolSafety(t *testing.T) {
	g := dataset.Synthetic(dataset.SyntheticConfig{Nodes: 600, Edges: 3000, Seed: 3, Skew: 1.1})
	tr := graph.NewStats(g).FrequentTriples(1)[0]
	parent := pattern.SingleEdge(pattern.Wildcard, tr.EdgeLabel, pattern.Wildcard)
	t1 := EdgeMatches(g, parent, nil)
	children := []*pattern.Pattern{
		parent.ExtendNewNode(0, tr.EdgeLabel, pattern.Wildcard, true),
		parent.ExtendNewNode(1, pattern.Wildcard, pattern.Wildcard, false),
		parent.ExtendClosingEdge(1, 0, tr.EdgeLabel),
		parent.ExtendClosingEdge(1, 0, pattern.Wildcard),
	}
	first := make([]*Table, len(children))
	snap := make([]*Table, len(children))
	for i, c := range children {
		first[i] = ExtendRows(g, t1, c)
		snap[i] = ExtendRowsRef(g, t1, c)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (w + k) % len(children)
				if got := ExtendRows(g, t1, children[i]); !tablesIdentical(got, snap[i]) {
					errs <- "concurrent ExtendRows diverges from the reference"
					return
				}
				ext := ExtendIndexed(g, t1, children[i])
				if len(ext.ParentRows) != snap[i].Len() {
					errs <- "concurrent ExtendIndexed share has the wrong length"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for i := range children {
		if !tablesIdentical(first[i], snap[i]) {
			t.Fatalf("child %d: an earlier result changed after later joins reused the pool", i)
		}
	}
}
