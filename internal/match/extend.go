package match

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file is the incremental join Q(t) ⋈ e(F) of Section 6.2: one
// batched kernel, extendIndexedViews, behind every entry point. The
// kernel appends to a pooled Share (share.go) — which parent rows extend,
// and with which new node — and the entry points differ only in what they
// do with it: ExtendShare and ExtendIndexed hand it out (a fragment
// server's share), ExtendRows, ExtendRowsViews and ChunkedExtend gather
// it into the child table.
//
// The kernel is organised around runs of equal-anchor rows. Parent
// tables arrive with the anchor column grouped (extension emits rows per
// parent row in order, so equal anchors sit adjacent), which makes the
// batching sort-free: one forward scan finds each maximal run, the CSR
// lookup and node-label filter run once per run into a reusable scratch
// buffer, and only the (short) per-row injectivity scan remains in the
// innermost loop. Output is byte-identical to the row-at-a-time
// reference kept in the tests — the label filter commutes with the
// injectivity filter, and candidates stay in view order then CSR
// enumeration order — which TestBatchedExtendDifferential locks.

// appendCandOK appends the candidates that survive the run-invariant
// filters — node label satisfies want (always, for a wildcard) and
// candidate ≠ anchor (the anchor column holds anchor on every row of the
// run, so that injectivity test does not depend on the row) — to dst.
// These are the checks the batching amortises: once per anchor run
// instead of once per parent row.
func appendCandOK(dst []graph.NodeID, g graph.View, cands []graph.NodeID, want graph.LabelID, anchor graph.NodeID) []graph.NodeID {
	if want == graph.NoLabel {
		for _, c := range cands {
			if c != anchor {
				dst = append(dst, c)
			}
		}
		return dst
	}
	for _, c := range cands {
		if c != anchor && g.NodeLabelID(c) == want {
			dst = append(dst, c)
		}
	}
	return dst
}

// gatherCandidates collects the filtered candidate bindings of one anchor
// node from every view, concatenated in view order, reusing scratch's
// storage.
func gatherCandidates(scratch []graph.NodeID, views []graph.View, store graph.View,
	anchor graph.NodeID, elabel, newLabel graph.LabelID, outgoing bool) []graph.NodeID {
	scratch = scratch[:0]
	for _, v := range views {
		if elabel != graph.NoLabel {
			var cands []graph.NodeID
			if outgoing {
				cands = v.OutTo(anchor, elabel)
			} else {
				cands = v.InFrom(anchor, elabel)
			}
			scratch = appendCandOK(scratch, store, cands, newLabel, anchor)
			continue
		}
		if outgoing {
			lo, hi := v.OutRuns(anchor)
			for r := lo; r < hi; r++ {
				scratch = appendCandOK(scratch, store, v.OutRunNodes(r), newLabel, anchor)
			}
		} else {
			lo, hi := v.InRuns(anchor)
			for r := lo; r < hi; r++ {
				scratch = appendCandOK(scratch, store, v.InRunNodes(r), newLabel, anchor)
			}
		}
	}
	return scratch
}

// appendRepeat appends n copies of v to dst: the bulk row-index emission
// of the collision-free fast path.
func appendRepeat[T any](dst []T, v T, n int) []T {
	dst = slices.Grow(dst, n)
	s := dst[len(dst) : len(dst)+n]
	for i := range s {
		s[i] = v
	}
	return dst[:len(dst)+n]
}

// runCounts returns the number of maximal runs of equal values in each
// of two equal-length columns, in one pass over both.
func runCounts(a, b []graph.NodeID) (na, nb int) {
	if len(a) == 0 {
		return 0, 0
	}
	na, nb = 1, 1
	b = b[:len(a)]
	for i := 1; i < len(a); i++ {
		if a[i] != a[i-1] {
			na++
		}
		if b[i] != b[i-1] {
			nb++
		}
	}
	return na, nb
}

// ExtendIndexed computes one view's share of the indexed join locally,
// into caller-owned exact-size slices: the implementation behind
// BatchExtender. The fragment server runs the same kernel against its own
// snapshot through ExtendShare; the client's failover paths run this.
func ExtendIndexed(g graph.View, t *Table, child *pattern.Pattern) IndexedExt {
	sh := ExtendShare(g, t, child)
	ext := sh.clone()
	sh.Release()
	return ext
}

// extendIndexedViews is the join body: it appends the share of the join
// of t by child's last edge to sh. The candidate edges come from views,
// edge-disjoint views over one shared node store: a worker's own
// fragment plus the received e(F_t) of every other fragment, or a single
// view. For a new-variable child, a parent row's extensions are listed
// view by view; a closing-edge row is kept once if any view holds a
// qualifying edge, so wildcard closing edges never duplicate rows.
func extendIndexedViews(sh *Share, views []graph.View, t *Table, child *pattern.Pattern) {
	if t == nil {
		return
	}
	// Labels and node structure are shared by every view (one node store,
	// one symbol table), so the new edge's label resolves once against the
	// first view and holds for all of them.
	store := views[0]
	e := child.LastEdge()
	elabel, eok := resolveLabel(store, e.Label)
	if !eok {
		return
	}
	pn := t.P.N()
	switch child.N() {
	case pn:
		// Closing edge between two bound variables: filter rows.
		srcCol, dstCol := t.cols[e.Src], t.cols[e.Dst]
		if elabel == graph.NoLabel {
			// Wildcard closing edge: the witness may sit in any of the
			// source's runs, so stay row-at-a-time on HasEdgeID.
			for r := range srcCol {
				for _, v := range views {
					if v.HasEdgeID(srcCol[r], dstCol[r], elabel) {
						sh.ParentRows = append(sh.ParentRows, uint32(r))
						break
					}
				}
			}
			return
		}
		// Concrete label: group rows on whichever endpoint column repeats
		// more. Grouping on the source resolves OutTo once per source run
		// and probes it with each row's destination; grouping on the
		// destination resolves InFrom once per destination run and probes
		// it with each row's source. Either way rows are visited in order,
		// so the surviving rows stay ascending.
		if srcRuns, dstRuns := runCounts(srcCol, dstCol); dstRuns < srcRuns {
			filterClosing(sh, views, dstCol, srcCol, elabel, false)
		} else {
			filterClosing(sh, views, srcCol, dstCol, elabel, true)
		}
	case pn + 1:
		nv := pn
		newLabel, nok := resolveLabel(store, child.NodeLabels[nv])
		if !nok {
			return
		}
		outgoing := e.Src != nv // true: bound -> new
		anchorVar := e.Src
		if !outgoing {
			anchorVar = e.Dst
		}
		anchorCol := t.cols[anchorVar]
		rows := len(anchorCol)
		cols := t.cols[:pn]
		ext := sh.IndexedExt
		// emit1 is the unbatched per-row path: candidates straight off the
		// CSR slice, label and injectivity checks inline, no materialisation.
		// Runs of length one (an ungrouped anchor column) take it — there is
		// nothing to amortise, so the gather would be pure overhead.
		emit1 := func(r int, cands []graph.NodeID) {
			for _, cand := range cands {
				if newLabel != graph.NoLabel && store.NodeLabelID(cand) != newLabel {
					continue
				}
				inj := true
				for v := 0; v < pn; v++ {
					if cols[v][r] == cand {
						inj = false // injectivity
						break
					}
				}
				if !inj {
					continue
				}
				ext.ParentRows = append(ext.ParentRows, uint32(r))
				ext.NewCol = append(ext.NewCol, cand)
			}
		}
		scratch := sh.cands
		for lo := 0; lo < rows; {
			anchor := anchorCol[lo]
			hi := lo + 1
			for hi < rows && anchorCol[hi] == anchor {
				hi++
			}
			if hi == lo+1 {
				for _, v := range views {
					if elabel != graph.NoLabel {
						if outgoing {
							emit1(lo, v.OutTo(anchor, elabel))
						} else {
							emit1(lo, v.InFrom(anchor, elabel))
						}
					} else if outgoing {
						rlo, rhi := v.OutRuns(anchor)
						for rr := rlo; rr < rhi; rr++ {
							emit1(lo, v.OutRunNodes(rr))
						}
					} else {
						rlo, rhi := v.InRuns(anchor)
						for rr := rlo; rr < rhi; rr++ {
							emit1(lo, v.InRunNodes(rr))
						}
					}
				}
				lo = hi
				continue
			}
			// The gather applies the run-invariant filters (node label,
			// candidate ≠ anchor) once for the whole run.
			scratch = gatherCandidates(scratch, views, store, anchor, elabel, newLabel, outgoing)
			if len(scratch) == 0 {
				lo = hi
				continue
			}
			m := len(scratch)
			for r := lo; r < hi; r++ {
				// Per row only injectivity against the non-anchor columns
				// remains. Collisions are rare, so scan for one first: the
				// collision-free case bulk-copies the candidate set — the
				// same pairs in the same order as per-candidate emission,
				// minus its per-element bookkeeping.
				collide := false
				for v := 0; v < pn && !collide; v++ {
					if v == anchorVar {
						continue
					}
					cv := cols[v][r]
					for _, cand := range scratch {
						if cand == cv {
							collide = true
							break
						}
					}
				}
				if !collide {
					ext.ParentRows = appendRepeat(ext.ParentRows, uint32(r), m)
					ext.NewCol = append(ext.NewCol, scratch...)
					continue
				}
				for _, cand := range scratch {
					inj := true
					for v := 0; v < pn; v++ {
						if v != anchorVar && cols[v][r] == cand {
							inj = false // injectivity
							break
						}
					}
					if !inj {
						continue
					}
					ext.ParentRows = append(ext.ParentRows, uint32(r))
					ext.NewCol = append(ext.NewCol, cand)
				}
			}
			lo = hi
		}
		sh.IndexedExt = ext
		sh.cands = scratch
	default:
		panic(fmt.Sprintf("match: extend: child has %d vars, parent %d", child.N(), pn))
	}
}

// filterClosing keeps the rows r whose probeCol[r] is adjacent to
// keyCol[r] under elabel in some view — out of keyCol[r] when outgoing,
// into it otherwise. Adjacency resolves once per run of equal keys. A run
// long enough relative to its adjacency (bitsetProbe) marks the adjacency
// in sh's NodeID bitset and tests each row in O(1), then unmarks it, so
// the bitset is never cleared wholesale; shorter runs binary-search the
// ascending adjacency per row.
func filterClosing(sh *Share, views []graph.View, keyCol, probeCol []graph.NodeID, elabel graph.LabelID, outgoing bool) {
	neigh := sh.neigh[:0]
	for range views {
		neigh = append(neigh, nil)
	}
	sh.neigh = neigh
	for lo := 0; lo < len(keyCol); {
		key := keyCol[lo]
		hi := lo + 1
		for hi < len(keyCol) && keyCol[hi] == key {
			hi++
		}
		deg := 0
		for i, v := range views {
			if outgoing {
				neigh[i] = v.OutTo(key, elabel)
			} else {
				neigh[i] = v.InFrom(key, elabel)
			}
			deg += len(neigh[i])
		}
		switch {
		case deg == 0:
		case bitsetProbe(hi-lo, deg):
			mark := sh.marks(views[0].NumNodes())
			for _, ns := range neigh {
				for _, x := range ns {
					mark.Set(int(x))
				}
			}
			for r := lo; r < hi; r++ {
				if mark.Get(int(probeCol[r])) {
					sh.ParentRows = append(sh.ParentRows, uint32(r))
				}
			}
			for _, ns := range neigh {
				for _, x := range ns {
					mark.Clear(int(x))
				}
			}
		default:
			for r := lo; r < hi; r++ {
				for _, ns := range neigh {
					if graph.ContainsNode(ns, probeCol[r]) {
						sh.ParentRows = append(sh.ParentRows, uint32(r))
						break
					}
				}
			}
		}
		lo = hi
	}
}

// extendRowsViews is ExtendRows/ExtendRowsViews: the join's share gathered
// into the child table.
func extendRowsViews(views []graph.View, t *Table, child *pattern.Pattern) *Table {
	sh := computeShare(views, t, child)
	out := gatherShares(t, child, []*Share{sh}, []int{0})
	sh.Release()
	return out
}
