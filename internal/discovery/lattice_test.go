package discovery

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/pattern"
)

// randomPool draws a literal pool over k variables from two attributes
// and two constants, so conflicting constants (x.a=1, x.a=2) and chains
// of variable literals (x0.a=x1.a, x1.a=x2.b, ...) are common. Duplicates
// and reflexive literals may occur; the check must hold for them too.
func randomPool(r *rand.Rand, k int) []core.Literal {
	attrs, consts := []string{"a", "b"}, []string{"1", "2"}
	pool := make([]core.Literal, 3+r.Intn(8))
	for i := range pool {
		a := attrs[r.Intn(len(attrs))]
		if r.Intn(2) == 0 {
			pool[i] = core.Const(r.Intn(k), a, consts[r.Intn(len(consts))])
		} else {
			pool[i] = core.Vars(r.Intn(k), a, r.Intn(k), attrs[r.Intn(len(attrs))])
		}
	}
	return pool
}

// xSets returns every sorted index subset of [0, n) with at most maxX
// members, level by level in the order the literal tree generates them.
func xSets(n, maxX int) [][]int {
	out := [][]int{{}}
	level := [][]int{{}}
	for j := 0; j < maxX; j++ {
		var next [][]int
		for _, x := range level {
			base := -1
			if len(x) > 0 {
				base = x[len(x)-1]
			}
			for nj := base + 1; nj < n; nj++ {
				next = append(next, append(append([]int(nil), x...), nj))
			}
		}
		out = append(out, next...)
		level = next
	}
	return out
}

// TestQuickIncrementalTriviality checks the lattice's incremental
// triviality test against (*core.GFD).Trivial on random literal sets with
// |X| ≤ 3 over patterns of up to 3 variables: for every positive
// candidate X → l and every negative X ∪ {l′} → false, visiting the
// X-sets once in literal-tree order (consecutive siblings share the
// cached parent closure) and once shuffled (the cache is rebuilt).
func TestQuickIncrementalTriviality(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(3)
		q := pattern.SingleNode("t")
		for q.N() < k {
			q = q.ExtendNewNode(q.N()-1, "e", "t", true)
		}
		pool := randomPool(r, k)
		sets := xSets(len(pool), 3)
		shuffled := append([][]int(nil), sets...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var lt lattice
		lt.reset(pool)
		for _, x := range append(sets, shuffled...) {
			for l := range pool {
				if contains(x, l) {
					continue
				}
				want := core.New(q, literalsOf(pool, x), pool[l]).Trivial()
				if got := lt.trivial(x, l); got != want {
					t.Logf("seed %d: X=%v → %v: incremental %v, Trivial %v", seed, literalsOf(pool, x), pool[l], got, want)
					return false
				}
				xcl := lt.closureOf(x)
				want = core.New(q, append(literalsOf(pool, x), pool[l]), core.False()).Trivial()
				if got := lt.conflicts(xcl, l); got != want {
					t.Logf("seed %d: X=%v ∪ %v → false: incremental %v, Trivial %v", seed, literalsOf(pool, x), pool[l], got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// isSubset reports a ⊆ b for sorted index sets: the oracle of the
// lattice's subset-enumerating subsumption test.
func isSubset(a, b []int) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}

// TestQuickLatticeSubsumption checks lattice.subsumed against a scan of
// every recorded valid X-set with isSubset, for random valid families of
// X-sets with |X| ≤ 3 over pools of up to 12 literals.
func TestQuickLatticeSubsumption(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sets := xSets(1+r.Intn(12), 3)
		var lt lattice
		var valid [][]int
		for _, x := range sets {
			if r.Intn(8) == 0 {
				lt.addValid(x)
				valid = append(valid, x)
			}
		}
		for _, x := range sets {
			want := false
			for _, v := range valid {
				if isSubset(v, x) {
					want = true
					break
				}
			}
			if got := lt.subsumed(x); got != want {
				t.Logf("seed %d: subsumed(%v) = %v with valid %v", seed, x, got, valid)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
