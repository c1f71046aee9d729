package discovery

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/pattern"
)

// coverRef is SeqCover as it was before core.Implier: every implication
// test re-derives Σ_Q with EmbeddedIn and re-enumerates each embedding
// while building its rules. It is the reference the memoised Cover must
// match GFD for GFD.
func coverRef(sigma []*core.GFD) []*core.GFD {
	work := append([]*core.GFD(nil), sigma...)
	sort.SliceStable(work, func(i, j int) bool {
		a, b := work[i], work[j]
		if a.Size() != b.Size() {
			return a.Size() > b.Size()
		}
		if len(a.X) != len(b.X) {
			return len(a.X) > len(b.X)
		}
		return a.Key() > b.Key()
	})
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(work); i++ {
			phi := work[i]
			rest := make([]*core.GFD, 0, len(work)-1)
			rest = append(rest, work[:i]...)
			rest = append(rest, work[i+1:]...)
			if impliesRef(rest, phi) {
				work = rest
				changed = true
				i--
			}
		}
	}
	return work
}

// impliesRef is the unmemoised Σ ⊨ φ test: EmbeddedIn, then the closure
// chase over freshly translated rules.
func impliesRef(sigma []*core.GFD, phi *core.GFD) bool {
	sq := core.EmbeddedIn(sigma, phi.Q)
	cl := &core.Closure{}
	for _, l := range phi.X {
		cl.Assert(l)
	}
	type rule struct {
		x   []core.Literal
		rhs core.Literal
	}
	var rules []rule
	for _, g := range sq {
		pattern.Embeddings(g.Q, phi.Q, pattern.EmbedOptions{}, func(f []int) bool {
			r := rule{x: make([]core.Literal, len(g.X)), rhs: core.False()}
			for i, l := range g.X {
				r.x[i] = l.Remap(f)
			}
			if g.RHS.Kind != core.LFalse {
				r.rhs = g.RHS.Remap(f)
			}
			rules = append(rules, r)
			return true
		})
	}
	for changed := true; changed && !cl.Conflicting(); {
		changed = false
		for _, r := range rules {
			ok := true
			for _, l := range r.x {
				if !cl.Holds(l) {
					ok = false
					break
				}
			}
			if ok && cl.Assert(r.rhs) {
				changed = true
			}
		}
	}
	if cl.Conflicting() {
		return true
	}
	if phi.RHS.Kind == core.LFalse {
		return false
	}
	return cl.Holds(phi.RHS)
}

// TestCoverMatchesReference checks the memoised Cover against coverRef on
// random subsets of Σ mined from DBpediaSim, wildcard patterns and
// negatives included. A subset drops some of the general GFDs that make
// most of Σ redundant, so the two covers must agree on which specific
// GFDs survive and on their order. (The whole Σ, about 3,600 GFDs, takes
// the reference over a minute.)
func TestCoverMatchesReference(t *testing.T) {
	res := Mine(parityGraph(), parityOptions())
	sigma := res.All()
	wildcards := 0
	for _, g := range sigma {
		for _, l := range g.Q.NodeLabels {
			if l == pattern.Wildcard {
				wildcards++
				break
			}
		}
	}
	if len(res.Negatives) == 0 || wildcards == 0 {
		t.Fatalf("mined Σ lacks negatives (%d) or wildcard patterns (%d)", len(res.Negatives), wildcards)
	}
	r := rand.New(rand.NewSource(13))
	var subsets [][]*core.GFD
	for i := 0; i < 12; i++ {
		keep := 0.01 + 0.1*r.Float64()
		var sub []*core.GFD
		for _, g := range sigma {
			if r.Float64() < keep {
				sub = append(sub, g)
			}
		}
		subsets = append(subsets, sub)
	}
	for i, sub := range subsets {
		got, want := Cover(sub), coverRef(sub)
		if len(got) != len(want) {
			t.Fatalf("subset %d (%d GFDs): cover has %d GFDs, reference %d", i, len(sub), len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("subset %d: cover[%d] = %v, reference %v", i, j, got[j], want[j])
			}
		}
	}
}
