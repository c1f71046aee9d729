package discovery

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// parityOptions is the seq-lattice benchmark setting (k=3, Γ = top-5
// attributes, 5 constants, |X| ≤ 1, wildcards, 30 patterns per level)
// scaled down to DBpediaSim(300).
func parityOptions() Options {
	return Options{
		K:                       3,
		Support:                 24,
		ConstantsPerAttr:        5,
		MaxX:                    1,
		WildcardNodes:           true,
		MaxExtensionsPerPattern: 20,
		MaxPatternsPerLevel:     30,
		MaxLevels:               4,
		MaxNegatives:            300,
		MaxTableRows:            300000,
	}
}

// parityGraph is the DBpedia-like graph of the parity and cover tests.
func parityGraph() *graph.Graph { return dataset.DBpediaSim(300, 42) }

// keyDigest hashes GFD keys in order, so the digest pins both the set and
// the emission order.
func keyDigest(gfds []*core.GFD) string {
	h := sha256.New()
	for _, g := range gfds {
		h.Write([]byte(g.Key()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestLatticeCounterParity pins the literal lattice's candidate counters
// and its Σ and cover to the values the map-and-slice lattice produced
// before the lattice became allocation-free: the rewrite must generate the
// same candidates in the same order and prune them for the same reasons.
func TestLatticeCounterParity(t *testing.T) {
	g := parityGraph()
	cases := []struct {
		name                      string
		mod                       func(*Options)
		spawned, checked, pruned  int
		positives, negatives, cov int
		sigma, cover              string
	}{
		{"maxx1", func(*Options) {},
			465148, 465148, 32813, 3343, 300, 741, "a6d6f92e01acc479", "fce979072e9878d9"},
		{"maxx2", func(o *Options) { o.MaxX = 2; o.K = 2; o.MaxLevels = 2; o.ConstantsPerAttr = 3 },
			480084, 409464, 163590, 1148, 300, 123, "910beddb6ddbd8ef", "2587b00d7383a4f2"},
		{"unpruned", func(o *Options) { o.DisablePruning = true; o.CandidateBudget = 40000 },
			40010, 40000, 2398, 257, 300, 145, "78b88c07ea03d34f", "34b5cfbd4b3e69a3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := parityOptions()
			c.mod(&opts)
			res := Mine(g, opts)
			st := res.Stats
			sigma := res.All()
			cov := Cover(sigma)
			got := []int{st.CandidatesSpawned, st.CandidatesChecked, st.CandidatesPruned, len(res.Positives), len(res.Negatives), len(cov)}
			want := []int{c.spawned, c.checked, c.pruned, c.positives, c.negatives, c.cov}
			names := strings.Fields("spawned checked pruned positives negatives cover")
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s = %d, want %d", names[i], got[i], want[i])
				}
			}
			if d := keyDigest(sigma); d != c.sigma {
				t.Errorf("Σ digest %s, want %s", d, c.sigma)
			}
			if d := keyDigest(cov); d != c.cover {
				t.Errorf("cover digest %s, want %s", d, c.cover)
			}
			if sum := st.PrunedTrivial + st.PrunedSubsumed + st.PrunedInfrequent + st.PrunedReduced; sum != st.CandidatesPruned {
				t.Errorf("prune reasons sum to %d, CandidatesPruned = %d", sum, st.CandidatesPruned)
			}
		})
	}
}
