package match

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file is the incremental join Q(t) ⋈ e(F) of Section 6.2: one
// batched kernel, extendIndexedViews, behind every entry point. The
// kernel emits an IndexedExt — which parent rows extend, and with which
// new node — and the entry points differ only in what they do with it:
// ExtendIndexed ships it (a fragment server's share), ExtendRows and
// ExtendRowsViews gather it into the child table.
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
	for ; n > 0; n-- {
		dst = append(dst, v)
	}
	return dst
}

// ExtendIndexed computes one view's share of the indexed join locally:
// the implementation behind BatchExtender. The fragment server runs
// exactly this against its own snapshot; the merge path runs it for local
// views standing next to remote ones.
func ExtendIndexed(g graph.View, t *Table, child *pattern.Pattern) IndexedExt {
	mExtendIndexed.Inc()
	return extendIndexedViews([]graph.View{g}, t, child)
}

// extendIndexedViews is the join body. The candidate edges come from
// views, edge-disjoint views over one shared node store: a worker's own
// fragment plus the received e(F_t) of every other fragment, or a single
// view. For a new-variable child, a parent row's extensions are listed
// view by view; a closing-edge row is kept once if any view holds a
// qualifying edge, so wildcard closing edges never duplicate rows.
func extendIndexedViews(views []graph.View, t *Table, child *pattern.Pattern) IndexedExt {
	var ext IndexedExt
	if t == nil {
		return ext
	}
	// Labels and node structure are shared by every view (one node store,
	// one symbol table), so the new edge's label resolves once against the
	// first view and holds for all of them.
	store := views[0]
	e := child.LastEdge()
	elabel, eok := resolveLabel(store, e.Label)
	if !eok {
		return ext
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
						ext.ParentRows = append(ext.ParentRows, uint32(r))
						break
					}
				}
			}
			return ext
		}
		// Concrete label: resolve each view's adjacency run once per run of
		// equal sources; the per-row work is one binary search per view.
		var small [4][]graph.NodeID
		neigh := small[:]
		if len(views) > len(small) {
			neigh = make([][]graph.NodeID, len(views))
		}
		neigh = neigh[:len(views)]
		for lo := 0; lo < len(srcCol); {
			src := srcCol[lo]
			hi := lo + 1
			for hi < len(srcCol) && srcCol[hi] == src {
				hi++
			}
			for i, v := range views {
				neigh[i] = v.OutTo(src, elabel)
			}
			for r := lo; r < hi; r++ {
				for _, ns := range neigh {
					if graph.ContainsNode(ns, dstCol[r]) {
						ext.ParentRows = append(ext.ParentRows, uint32(r))
						break
					}
				}
			}
			lo = hi
		}
	case pn + 1:
		nv := pn
		newLabel, nok := resolveLabel(store, child.NodeLabels[nv])
		if !nok {
			return ext
		}
		outgoing := e.Src != nv // true: bound -> new
		anchorVar := e.Src
		if !outgoing {
			anchorVar = e.Dst
		}
		anchorCol := t.cols[anchorVar]
		rows := len(anchorCol)
		cols := t.cols[:pn]
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
		var scratch []graph.NodeID
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
	default:
		panic(fmt.Sprintf("match: extend: child has %d vars, parent %d", child.N(), pn))
	}
	return ext
}

// extendRowsViews is ExtendRows/ExtendRowsViews: the join's share list
// gathered into the child table. A view that computes its own share (a
// remote fragment) switches the call to the index-merge path.
func extendRowsViews(views []graph.View, t *Table, child *pattern.Pattern) *Table {
	var ext IndexedExt
	if hasBatchExtender(views) {
		ext = extendIndexedMerge(views, t, child)
	} else {
		ext = extendIndexedViews(views, t, child)
	}
	out := gatherRows(t, child, ext)
	mExtendCalls.Inc()
	mExtendRows.Add(int64(out.Len()))
	return out
}

// gatherRows materialises a join share as the child table: each parent
// column is read through ext.ParentRows into an exact-size column (all
// sharing one allocation), and ext.NewCol becomes the new variable's
// column as-is.
func gatherRows(t *Table, child *pattern.Pattern, ext IndexedExt) *Table {
	out := NewTable(child)
	n := len(ext.ParentRows)
	if t == nil || n == 0 {
		return out
	}
	pn := len(t.cols)
	buf := make([]graph.NodeID, n*pn)
	for v, col := range t.cols {
		dst := buf[v*n : (v+1)*n : (v+1)*n]
		for i, r := range ext.ParentRows {
			dst[i] = col[r]
		}
		out.cols[v] = dst
	}
	if child.N() > pn {
		out.cols[pn] = ext.NewCol
	}
	return out
}
