package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// batchShim wraps a local view behind the BatchExtender interface, making
// ExtendRowsViews take the index-merge path exactly as it does for a
// remote fragment — but with the share computed in-process, so the merge
// logic is tested in isolation from any transport.
type batchShim struct {
	graph.View
}

func (s batchShim) ExtendIndexed(t *Table, child *pattern.Pattern) IndexedExt {
	return ExtendIndexed(s.View, t, child)
}

// splitViews partitions g's edges round-robin into k edge-disjoint SubCSR
// views (every edge visible through exactly one view, as in a ParDis
// fragment set).
func splitViews(g *graph.Graph, k int) []graph.View {
	parts := make([][]graph.IEdge, k)
	i := 0
	graph.ViewEdges(g, func(e graph.IEdge) bool {
		parts[i%k] = append(parts[i%k], e)
		i++
		return true
	})
	views := make([]graph.View, k)
	for w := range parts {
		views[w] = graph.NewSubCSR(g, parts[w])
	}
	return views
}

// sameTable asserts byte-identical tables: same length and the same cell
// in every (row, var) position — row ORDER matters, unlike sameMatchSet.
func sameTable(a, b *Table) bool {
	if a.Len() != b.Len() || a.NumVars() != b.NumVars() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		for v := 0; v < a.NumVars(); v++ {
			if a.At(i, v) != b.At(i, v) {
				return false
			}
		}
	}
	return true
}

// TestIndexedMergeDifferential locks the index-merge path (taken when any
// view is a BatchExtender) to the multi-view kernel: for random graphs,
// random parent/child patterns, random view counts and a random subset of
// views shimmed through BatchExtender, the output table must be
// byte-identical — same rows in the same order — to the all-local call.
// This is the property that makes remote mining reproduce the golden
// bytes: the transport can only move a share, never reorder it.
func TestIndexedMergeDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 4+r.Intn(8))
		parent, child := randomParentChild(r)
		k := 1 + r.Intn(4)
		plain := splitViews(g, k)

		shimmed := make([]graph.View, k)
		anyShim := false
		for i, v := range plain {
			if r.Intn(2) == 0 {
				shimmed[i] = batchShim{v}
				anyShim = true
			} else {
				shimmed[i] = v
			}
		}
		if !anyShim {
			shimmed[0] = batchShim{plain[0]}
		}

		base := EdgeMatches(g, parent, nil)
		want := ExtendRowsViews(plain, base, child)
		got := ExtendRowsViews(shimmed, base, child)
		return sameTable(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedMergeNilTable: the merge path must mirror the kernel's
// nil-table contract (empty output table, correct arity).
func TestIndexedMergeNilTable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := randomGraph(r, 6)
	parent, child := randomParentChild(r)
	views := []graph.View{batchShim{g}}
	out := ExtendRowsViews(views, nil, child)
	if out.Len() != 0 || out.NumVars() != child.N() {
		t.Fatalf("nil-table extend: len=%d vars=%d, want 0 and %d", out.Len(), out.NumVars(), child.N())
	}
	_ = parent
}
