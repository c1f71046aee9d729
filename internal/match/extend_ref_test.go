package match

import (
	"fmt"
	"testing"

	"repro/internal/dataset"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file preserves the row-at-a-time extend kernel the batched kernel
// in extend.go replaced: one CSR lookup and one label filter per parent
// row, no run batching. It is the correctness oracle of the differential
// tests (the batched kernel must reproduce its output byte-for-byte) and
// the baseline of the BenchmarkExtendRowsSkew ablation.

// ExtendRowsRef is the row-at-a-time reference form of ExtendRows.
func ExtendRowsRef(g graph.View, t *Table, child *pattern.Pattern) *Table {
	return extendRowsViewsRef([]graph.View{g}, t, child)
}

// extendRowsViewsRef is the pre-batching extendRowsViews body, verbatim.
func extendRowsViewsRef(views []graph.View, t *Table, child *pattern.Pattern) *Table {
	out := NewTable(child)
	if t == nil {
		return out
	}
	store := views[0]
	parent := t.P
	e := child.LastEdge()
	elabel, eok := resolveLabel(store, e.Label)
	if !eok {
		return out
	}
	pn := parent.N()
	switch child.N() {
	case pn:
		srcCol, dstCol := t.cols[e.Src], t.cols[e.Dst]
		for r := range srcCol {
			for _, v := range views {
				if v.HasEdgeID(srcCol[r], dstCol[r], elabel) {
					out.appendRow(t, r)
					break
				}
			}
		}
	case pn + 1:
		nv := pn
		newLabel, nok := resolveLabel(store, child.NodeLabels[nv])
		if !nok {
			return out
		}
		outgoing := e.Src != nv // true: bound -> new
		anchorVar := e.Src
		if !outgoing {
			anchorVar = e.Dst
		}
		extend := func(r int, cand graph.NodeID) {
			if !nodeLabelOK(store, cand, newLabel) {
				return
			}
			for v := 0; v < pn; v++ {
				if t.cols[v][r] == cand {
					return // injectivity
				}
			}
			out.appendRow(t, r)
			out.cols[nv] = append(out.cols[nv], cand)
		}
		anchorCol := t.cols[anchorVar]
		for r := range anchorCol {
			anchor := anchorCol[r]
			for _, v := range views {
				if elabel != graph.NoLabel {
					var cands []graph.NodeID
					if outgoing {
						cands = v.OutTo(anchor, elabel)
					} else {
						cands = v.InFrom(anchor, elabel)
					}
					for _, cand := range cands {
						extend(r, cand)
					}
					continue
				}
				if outgoing {
					lo, hi := v.OutRuns(anchor)
					for rr := lo; rr < hi; rr++ {
						for _, cand := range v.OutRunNodes(rr) {
							extend(r, cand)
						}
					}
				} else {
					lo, hi := v.InRuns(anchor)
					for rr := lo; rr < hi; rr++ {
						for _, cand := range v.InRunNodes(rr) {
							extend(r, cand)
						}
					}
				}
			}
		}
	default:
		panic(fmt.Sprintf("match: ExtendRowsRef: child has %d vars, parent %d", child.N(), pn))
	}
	return out
}

// extendIndexedRef is the pre-batching ExtendIndexed body, verbatim: the
// oracle for the batched single-view share.
func extendIndexedRef(g graph.View, t *Table, child *pattern.Pattern) IndexedExt {
	var ext IndexedExt
	if t == nil {
		return ext
	}
	parent := t.P
	e := child.LastEdge()
	elabel, eok := resolveLabel(g, e.Label)
	if !eok {
		return ext
	}
	pn := parent.N()
	switch child.N() {
	case pn:
		srcCol, dstCol := t.cols[e.Src], t.cols[e.Dst]
		for r := range srcCol {
			if g.HasEdgeID(srcCol[r], dstCol[r], elabel) {
				ext.ParentRows = append(ext.ParentRows, uint32(r))
			}
		}
	case pn + 1:
		nv := pn
		newLabel, nok := resolveLabel(g, child.NodeLabels[nv])
		if !nok {
			return ext
		}
		outgoing := e.Src != nv
		anchorVar := e.Src
		if !outgoing {
			anchorVar = e.Dst
		}
		extend := func(r int, cand graph.NodeID) {
			if !nodeLabelOK(g, cand, newLabel) {
				return
			}
			for v := 0; v < pn; v++ {
				if t.cols[v][r] == cand {
					return // injectivity
				}
			}
			ext.ParentRows = append(ext.ParentRows, uint32(r))
			ext.NewCol = append(ext.NewCol, cand)
		}
		anchorCol := t.cols[anchorVar]
		for r := range anchorCol {
			anchor := anchorCol[r]
			if elabel != graph.NoLabel {
				var cands []graph.NodeID
				if outgoing {
					cands = g.OutTo(anchor, elabel)
				} else {
					cands = g.InFrom(anchor, elabel)
				}
				for _, cand := range cands {
					extend(r, cand)
				}
				continue
			}
			if outgoing {
				lo, hi := g.OutRuns(anchor)
				for rr := lo; rr < hi; rr++ {
					for _, cand := range g.OutRunNodes(rr) {
						extend(r, cand)
					}
				}
			} else {
				lo, hi := g.InRuns(anchor)
				for rr := lo; rr < hi; rr++ {
					for _, cand := range g.InRunNodes(rr) {
						extend(r, cand)
					}
				}
			}
		}
	default:
		panic("match: extendIndexedRef: child must add exactly one edge")
	}
	return ext
}

// BenchmarkExtendRowsSkew is the batching ablation: the run-batched
// kernel against the row-at-a-time reference on its target shape — long
// equal-anchor runs from power-law hubs, where candidates are gathered
// once per run.
func BenchmarkExtendRowsSkew(b *testing.B) {
	g := dataset.Synthetic(dataset.SyntheticConfig{Nodes: 3000, Edges: 12000, Seed: 42, Skew: 1.1})
	t0 := graph.NewStats(g).FrequentTriples(1)[0]
	// Wildcard endpoints keep the hub runs intact (node-label constraints
	// would shred them); the concrete new-node label is the filter the
	// batching amortises across each run.
	parent := pattern.SingleEdge(pattern.Wildcard, t0.EdgeLabel, pattern.Wildcard)
	child := parent.ExtendNewNode(0, t0.EdgeLabel, t0.DstLabel, true)
	t1 := EdgeMatches(g, parent, nil)
	for _, bc := range []struct {
		name   string
		extend func(graph.View, *Table, *pattern.Pattern) *Table
	}{
		{"batched", ExtendRows},
		{"ref", ExtendRowsRef},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.extend(g, t1, child).Len() == 0 {
					b.Fatal("empty skew extension")
				}
			}
		})
	}
}
