package discovery

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// hubBipartite builds a dense bipartite graph whose single-edge table has
// more than 2×match.StealMinChunk rows, forcing ExtendBatch's chunk-splitting
// path: 100 a-nodes fully connected to 100 b-nodes ("e", 10k rows), a
// sparse "f" fan-out to a few c-nodes for cheap extensions.
func hubBipartite() *graph.Graph {
	const na, nb, nc = 100, 100, 10
	g := graph.New(na+nb+nc, na*nb+2*na)
	as := make([]graph.NodeID, na)
	bs := make([]graph.NodeID, nb)
	cs := make([]graph.NodeID, nc)
	for i := range as {
		as[i] = g.AddNode("a", nil)
	}
	for i := range bs {
		bs[i] = g.AddNode("b", nil)
	}
	for i := range cs {
		cs[i] = g.AddNode("c", nil)
	}
	for i, a := range as {
		for _, b := range bs {
			g.AddEdge(a, b, "e")
		}
		g.AddEdge(a, cs[i%nc], "f")
		g.AddEdge(a, cs[(i+3)%nc], "f")
	}
	g.Finalize()
	return g
}

func tableRowsEqual(t *testing.T, got, want *match.Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("row count diverged: got %d want %d", got.Len(), want.Len())
	}
	if got.Support() != want.Support() {
		t.Fatalf("support diverged: got %d want %d", got.Support(), want.Support())
	}
	for r := 0; r < want.Len(); r++ {
		if !reflect.DeepEqual(got.Row(r), want.Row(r)) {
			t.Fatalf("row %d diverged: got %v want %v", r, got.Row(r), want.Row(r))
		}
	}
}

// TestConcurrentExtendBatchStealingChunks drives ExtendBatch with a parent
// table large enough to be split into stealable chunks (10k rows >
// 2×match.StealMinChunk) next to small children, and checks every output table
// byte-identical to a direct single-threaded match.ExtendRows — chunk
// merge order must reproduce the unchunked row order exactly. The CI race
// job runs this under -race, which also checks the cursor/merge fences.
func TestConcurrentExtendBatchStealingChunks(t *testing.T) {
	g := hubBipartite()
	parent := pattern.SingleEdge("a", "e", "b")
	children := []*pattern.Pattern{
		parent.ExtendNewNode(0, "f", "c", true),
		parent.ExtendNewNode(0, "f", pattern.Wildcard, true),
		parent.ExtendClosingEdge(0, 1, "e"),
		parent.ExtendNewNode(1, "f", "c", false), // no matches: f never enters b
	}

	for _, procs := range []int{1, 4, 7} {
		prev := runtime.GOMAXPROCS(procs)
		b := NewSeqBackend(g, 0, nil)
		t1 := match.EdgeMatches(g, parent, nil)
		if t1.Len() <= 2*match.StealMinChunk {
			runtime.GOMAXPROCS(prev)
			t.Fatalf("parent table too small to exercise chunking: %d rows", t1.Len())
		}
		h := &seqHandle{table: t1}
		parents := []Handle{h, h, h, h}
		outs := b.ExtendBatch(parents, children)
		for i, child := range children {
			want := match.ExtendRows(g, t1, child)
			got := outs[i].H.(*seqHandle).table
			tableRowsEqual(t, got, want)
			if outs[i].Support != want.Support() || outs[i].Rows != want.Len() || !outs[i].OK {
				t.Fatalf("procs=%d child %d: PatOut {sup:%d rows:%d ok:%v} vs table {sup:%d rows:%d}",
					procs, i, outs[i].Support, outs[i].Rows, outs[i].OK, want.Support(), want.Len())
			}
		}
		if outs[0].Rows == 0 || outs[2].Rows == 0 {
			t.Fatal("degenerate workload: chunked children produced no rows")
		}
		if outs[3].Rows != 0 {
			t.Fatal("expected empty child produced rows")
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestConcurrentExtendBatchStealingAbort checks the row-cap abort path
// still fires deterministically when the over-cap child was computed in
// stolen chunks.
func TestConcurrentExtendBatchStealingAbort(t *testing.T) {
	g := hubBipartite()
	parent := pattern.SingleEdge("a", "e", "b")
	children := []*pattern.Pattern{
		parent.ExtendNewNode(0, "f", "c", true), // 2 per row: 20k rows > cap
		parent.ExtendClosingEdge(0, 1, "e"),     // 10k rows ≤ cap
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var stats Stats
	b := NewSeqBackend(g, 10_000, &stats)
	h := &seqHandle{table: match.EdgeMatches(g, parent, nil)}
	outs := b.ExtendBatch([]Handle{h, h}, children)
	if outs[0].OK || outs[0].H != nil {
		t.Fatalf("over-cap child not aborted: %+v", outs[0])
	}
	if !outs[1].OK || outs[1].Rows != 10_000 {
		t.Fatalf("within-cap child mishandled: %+v", outs[1])
	}
	if stats.Aborted != 1 {
		t.Fatalf("stats.Aborted = %d, want 1", stats.Aborted)
	}
}
