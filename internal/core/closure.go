package core

import (
	"repro/internal/pattern"
)

// This file implements the closure characterisation of GFD satisfiability
// and implication (Section 3, after Lemmas 3 and 7 of Fan-Wu-Xu 2016):
//
//   - Σ is satisfiable iff some pattern Q in Σ has a non-conflicting
//     enforced(Σ_Q);
//   - Σ ⊨ φ = Q[x̄](X → l) iff closure(Σ_Q, X) is conflicting or contains l,
//
// where Σ_Q is the set of GFDs of Σ embedded in Q, and closure(Σ_Q, X) is
// the set of literals deduced by applying Σ_Q's dependencies through their
// embeddings into Q, closed under transitivity of equality.
//
// The closure itself is a union–find over the terms x.A appearing in Q's
// variable space, with at most one constant tag per class; it is the chase
// of relational dependency theory specialised to equality atoms.

type termKey struct {
	v int
	a string
}

// Closure is the deductive closure of a literal set over a pattern's
// variable space. Terms are interned in a slice rather than a map: a
// pattern has at most k·|Γ| terms, so a linear lookup is as fast as
// hashing, and Reset/CopyFrom make one Closure reusable with no further
// allocation once its slices have grown. The zero value is an empty
// closure.
type Closure struct {
	keys        []termKey // keys[t] is the term with index t
	parent      []int
	rank        []int
	constOf     []string
	hasConst    []bool
	conflicting bool
}

// Reset empties the closure, keeping its storage.
func (c *Closure) Reset() {
	c.keys = c.keys[:0]
	c.parent = c.parent[:0]
	c.rank = c.rank[:0]
	c.constOf = c.constOf[:0]
	c.hasConst = c.hasConst[:0]
	c.conflicting = false
}

// CopyFrom makes c a copy of o, reusing c's storage: extending a copy of
// a closure by one literal is the incremental step of the literal lattice.
func (c *Closure) CopyFrom(o *Closure) {
	c.keys = append(c.keys[:0], o.keys...)
	c.parent = append(c.parent[:0], o.parent...)
	c.rank = append(c.rank[:0], o.rank...)
	c.constOf = append(c.constOf[:0], o.constOf...)
	c.hasConst = append(c.hasConst[:0], o.hasConst...)
	c.conflicting = o.conflicting
}

// Conflicting reports whether the closure contains x.A = c and x.A = d for
// distinct constants c ≠ d (equivalently, false was derived).
func (c *Closure) Conflicting() bool { return c.conflicting }

func (c *Closure) term(v int, a string) int {
	if t, ok := c.lookup(v, a); ok {
		return t
	}
	t := len(c.parent)
	c.keys = append(c.keys, termKey{v, a})
	c.parent = append(c.parent, t)
	c.rank = append(c.rank, 0)
	c.constOf = append(c.constOf, "")
	c.hasConst = append(c.hasConst, false)
	return t
}

func (c *Closure) lookup(v int, a string) (int, bool) {
	for t, k := range c.keys {
		if k.v == v && k.a == a {
			return t, true
		}
	}
	return 0, false
}

func (c *Closure) find(t int) int {
	for c.parent[t] != t {
		c.parent[t] = c.parent[c.parent[t]]
		t = c.parent[t]
	}
	return t
}

func (c *Closure) union(a, b int) bool {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return false
	}
	if c.rank[ra] < c.rank[rb] {
		ra, rb = rb, ra
	}
	c.parent[rb] = ra
	if c.rank[ra] == c.rank[rb] {
		c.rank[ra]++
	}
	// Merge constant tags; conflicting tags derive false.
	if c.hasConst[rb] {
		if c.hasConst[ra] {
			if c.constOf[ra] != c.constOf[rb] {
				c.conflicting = true
			}
		} else {
			c.hasConst[ra] = true
			c.constOf[ra] = c.constOf[rb]
		}
	}
	return true
}

func (c *Closure) setConst(t int, val string) bool {
	r := c.find(t)
	if c.hasConst[r] {
		if c.constOf[r] != val {
			c.conflicting = true
			return true
		}
		return false
	}
	c.hasConst[r] = true
	c.constOf[r] = val
	return true
}

// assert adds a literal to the closure; reports whether anything changed.
func (c *Closure) assert(l Literal) bool {
	switch l.Kind {
	case LConst:
		return c.setConst(c.term(l.X, l.A), l.C)
	case LVar:
		return c.union(c.term(l.X, l.A), c.term(l.Y, l.B))
	default: // LFalse
		changed := !c.conflicting
		c.conflicting = true
		return changed
	}
}

// holds reports whether the closure entails the literal.
func (c *Closure) holds(l Literal) bool {
	if c.conflicting {
		return true
	}
	switch l.Kind {
	case LConst:
		t, ok := c.lookup(l.X, l.A)
		if !ok {
			return false
		}
		r := c.find(t)
		return c.hasConst[r] && c.constOf[r] == l.C
	case LVar:
		tx, okx := c.lookup(l.X, l.A)
		ty, oky := c.lookup(l.Y, l.B)
		if !okx || !oky {
			return false
		}
		rx, ry := c.find(tx), c.find(ty)
		if rx == ry {
			return true
		}
		// Equal constants entail equality by transitivity.
		return c.hasConst[rx] && c.hasConst[ry] && c.constOf[rx] == c.constOf[ry]
	default: // LFalse
		return c.conflicting
	}
}

// Assert adds a literal to the closure and reports whether anything
// changed.
func (c *Closure) Assert(l Literal) bool { return c.assert(l) }

// Holds reports whether the closure entails l. A conflicting closure
// entails every literal, false included, so Holds(φ.RHS) after asserting
// φ's premises is exactly "φ is trivial" (Section 4.1), and after
// chasing Σ_Q it is exactly "Σ ⊨ φ" (Section 3).
func (c *Closure) Holds(l Literal) bool { return c.holds(l) }

// EmbeddedIn returns the GFDs of sigma embedded in q: those whose pattern
// has at least one embedding into q (Section 3). φ itself should be
// excluded by the caller when testing Σ\{φ} ⊨ φ.
func EmbeddedIn(sigma []*GFD, q *pattern.Pattern) []*GFD {
	var out []*GFD
	for _, g := range sigma {
		if pattern.EmbedsInto(g.Q, q, pattern.EmbedOptions{}) {
			out = append(out, g)
		}
	}
	return out
}

// Implier decides implication for a stream of queries over one family of
// GFDs, such as SeqCover's pass over Σ or one ParCover group. Discovery's
// Σ shares a few patterns among many GFDs (about 100 patterns for 1,400
// GFDs on DBpedia), so the Implier memoises the embeddings of every
// (sub, host) pattern pair it meets and reuses one closure and one rule
// buffer: a query allocates nothing once its pattern pairs are known.
// Patterns are keyed by pointer and must not change while the Implier is
// in use. An Implier is not safe for concurrent use.
type Implier struct {
	embeds map[[2]*pattern.Pattern][][]int
	cl     Closure
	rules  []rule
}

// rule is a GFD fired through one embedding f of its pattern into the
// host pattern: its literals are translated with Remap as they are read.
type rule struct {
	g *GFD
	f []int
}

// NewImplier returns an Implier with an empty embedding memo.
func NewImplier() *Implier {
	return &Implier{embeds: make(map[[2]*pattern.Pattern][][]int)}
}

// embeddings returns every embedding of sub into host, computed once per
// pattern pair.
func (im *Implier) embeddings(sub, host *pattern.Pattern) [][]int {
	key := [2]*pattern.Pattern{sub, host}
	if fs, ok := im.embeds[key]; ok {
		return fs
	}
	var fs [][]int
	pattern.Embeddings(sub, host, pattern.EmbedOptions{}, func(f []int) bool {
		fs = append(fs, append([]int(nil), f...))
		return true
	})
	im.embeds[key] = fs
	return fs
}

// Closure computes closure(Σ_Q, X) for host pattern q: it seeds the
// closure with X, then repeatedly fires every GFD of sigma through every
// embedding of its pattern into q whenever the embedded premises hold,
// until fixpoint. GFDs of sigma that do not embed in q have no embedding
// to fire through and are skipped. The returned closure is owned by the
// Implier and valid until its next call.
func (im *Implier) Closure(sigma []*GFD, q *pattern.Pattern, x []Literal) *Closure {
	cl := &im.cl
	cl.Reset()
	for _, l := range x {
		cl.assert(l)
	}
	rules := im.rules[:0]
	var last *pattern.Pattern
	var fs [][]int
	for _, g := range sigma {
		if g.Q != last { // GFDs of one pattern tend to sit together in Σ
			last, fs = g.Q, im.embeddings(g.Q, q)
		}
		for _, f := range fs {
			rules = append(rules, rule{g: g, f: f})
		}
	}
	im.rules = rules
	for changed := true; changed && !cl.conflicting; {
		changed = false
		for _, r := range rules {
			ok := true
			for _, l := range r.g.X {
				if !cl.holds(l.Remap(r.f)) {
					ok = false
					break
				}
			}
			if ok && cl.assert(r.g.RHS.Remap(r.f)) {
				changed = true
			}
		}
	}
	return cl
}

// Implies reports Σ ⊨ φ by the characterisation of Section 3: closure(Σ_Q,
// X) is conflicting or contains φ's right-hand side. The caller passes
// sigma without φ itself when testing redundancy.
func (im *Implier) Implies(sigma []*GFD, phi *GFD) bool {
	return im.Closure(sigma, phi.Q, phi.X).holds(phi.RHS)
}

// ComputeClosure is a one-shot Implier.Closure.
func ComputeClosure(sigma []*GFD, q *pattern.Pattern, x []Literal) *Closure {
	return NewImplier().Closure(sigma, q, x)
}

// Enforced computes enforced(Σ_Q) = closure(Σ_Q, ∅) for the pattern q.
func Enforced(sigma []*GFD, q *pattern.Pattern) *Closure {
	return ComputeClosure(sigma, q, nil)
}

// Implies is a one-shot Implier.Implies.
func Implies(sigma []*GFD, phi *GFD) bool { return NewImplier().Implies(sigma, phi) }

// Satisfiable reports whether Σ has a model with at least one applicable
// GFD: per the algorithm of Theorem 1(a), it checks whether some GFD's
// pattern Q has a non-conflicting enforced(Σ_Q). The empty set is not
// satisfiable under the paper's definition (condition (b) requires an
// applicable GFD).
func Satisfiable(sigma []*GFD) bool {
	im := NewImplier()
	for _, g := range sigma {
		if !im.Closure(sigma, g.Q, nil).Conflicting() {
			return true
		}
	}
	return false
}

// MaxK returns the parameter k = max |x̄| over sigma (0 for empty sigma).
func MaxK(sigma []*GFD) int {
	k := 0
	for _, g := range sigma {
		if g.K() > k {
			k = g.K()
		}
	}
	return k
}

// KBounded reports whether every GFD in sigma has at most k variables.
func KBounded(sigma []*GFD, k int) bool {
	for _, g := range sigma {
		if g.K() > k {
			return false
		}
	}
	return true
}
