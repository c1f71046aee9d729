package discovery

import (
	"sort"

	"repro/internal/core"
)

// Cover computes a cover Σc of Σ (algorithm SeqCover of Section 5.2): a
// minimal subset equivalent to Σ. For each φ it tests Σ\{φ} ⊨ φ with the
// closure characterisation of GFD implication and removes φ if implied,
// iterating until no more GFDs can be removed. One core.Implier serves
// every test of the run, so each (sub, host) pattern pair's embeddings
// are enumerated once, not once per test.
//
// The order of inspection is deterministic: GFDs with larger patterns and
// longer premises are inspected first, so the cover retains the most
// general members of each implication-equivalent family.
func Cover(sigma []*core.GFD) []*core.GFD {
	// Most-specific first: these are the ones redundant w.r.t. general rules.
	type keyed struct {
		g   *core.GFD
		key string
	}
	order := make([]keyed, len(sigma))
	for i, g := range sigma {
		order[i] = keyed{g, g.Key()}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i].g, order[j].g
		if a.Size() != b.Size() {
			return a.Size() > b.Size()
		}
		if len(a.X) != len(b.X) {
			return len(a.X) > len(b.X)
		}
		return order[i].key > order[j].key
	})
	work := make([]*core.GFD, len(order))
	for i, o := range order {
		work[i] = o.g
	}
	im := core.NewImplier()
	rest := make([]*core.GFD, 0, len(work))
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(work); i++ {
			phi := work[i]
			rest = append(append(rest[:0], work[:i]...), work[i+1:]...)
			if im.Implies(rest, phi) {
				work, rest = rest, work // rest becomes the next scratch
				changed = true
				i--
			}
		}
	}
	return work
}

// CoverResult carries the cover with counters for reporting.
type CoverResult struct {
	Cover   []*core.GFD
	Input   int
	Removed int
}

// CoverWithStats computes the cover and reports how much was removed.
func CoverWithStats(sigma []*core.GFD) CoverResult {
	cov := Cover(sigma)
	return CoverResult{Cover: cov, Input: len(sigma), Removed: len(sigma) - len(cov)}
}

// MinedCover filters a discovery result to a cover, preserving the Mined
// metadata of the survivors (positives and negatives alike).
func MinedCover(res *Result) []Mined {
	all := append([]Mined(nil), res.Positives...)
	all = append(all, res.Negatives...)
	byKey := make(map[string]Mined, len(all))
	gfds := make([]*core.GFD, len(all))
	for i, m := range all {
		gfds[i] = m.GFD
		byKey[m.GFD.Key()] = m
	}
	cov := Cover(gfds)
	out := make([]Mined, 0, len(cov))
	for _, g := range cov {
		out = append(out, byKey[g.Key()])
	}
	return out
}
