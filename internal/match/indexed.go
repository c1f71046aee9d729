package match

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file is the distributed form of the incremental join: the per-view
// work of ExtendRowsViews factored into an exchangeable value. A view's
// share of the join Q(t) ⋈ e(F_v) is fully described by which parent rows
// it extends (and, for a new variable, with which node) — so a remote
// fragment server can compute its share against its own mmap'd snapshot
// and ship back two flat uint32 columns, and the coordinator can merge
// the shares of all views back into exactly the table the single-process
// path builds. Row-table batches are the RPC unit; no per-edge lookup
// ever crosses the wire.

// FromCols builds a table over p directly from parallel columns, sharing
// their storage: the wire decode path for a row-table batch received by a
// fragment server. Column count must equal p.N() and all columns must
// have equal length.
func FromCols(p *pattern.Pattern, cols [][]graph.NodeID) (*Table, error) {
	if len(cols) != p.N() {
		return nil, fmt.Errorf("match: FromCols: %d columns for a %d-variable pattern", len(cols), p.N())
	}
	for v := 1; v < len(cols); v++ {
		if len(cols[v]) != len(cols[0]) {
			return nil, fmt.Errorf("match: FromCols: column %d has %d rows, column 0 has %d", v, len(cols[v]), len(cols[0]))
		}
	}
	return &Table{P: p, cols: cols}, nil
}

// IndexedExt is one view's share of an indexed incremental join: the
// parent rows it extends, in ascending order, and — for a new-variable
// child — the parallel column of new-node bindings. For a closing-edge
// child ParentRows lists the surviving rows (unique, ascending) and
// NewCol is nil. Candidates for one parent row appear in the view's
// enumeration order, so merging per-view shares in view order reproduces
// the exact row order of the multi-view kernel extendIndexedViews.
type IndexedExt struct {
	ParentRows []uint32
	NewCol     []graph.NodeID
}

// BatchExtender is a view that computes its own share of the incremental
// join — a remote fragment does it server-side against its snapshot and
// ships the result back as flat columns. ExtendRowsViews detects it and
// switches to the index-merge path, which is byte-identical to the
// multi-view kernel (locked by TestIndexedMergeDifferential).
type BatchExtender interface {
	ExtendIndexed(t *Table, child *pattern.Pattern) IndexedExt
}

// hasBatchExtender reports whether any view computes its own share.
func hasBatchExtender(views []graph.View) bool {
	for _, v := range views {
		if _, ok := v.(BatchExtender); ok {
			return true
		}
	}
	return false
}

// extendIndexedMerge is the join over a view mix that includes at least
// one BatchExtender. Each view produces its own share — remotely, or into
// a pooled Share for a local view — and the shares are merged per parent
// row in view order into out, the share extendIndexedViews would have
// built over the same views: for every parent row, view 0's extensions
// precede view 1's, and a closing-edge row is kept once no matter how
// many views witness the edge. out is presized from the sum of the
// per-view share lengths, so the merge never regrows it. Share entries
// naming rows outside t are never consumed, so a malformed remote share
// cannot index past t.
func extendIndexedMerge(out *Share, views []graph.View, t *Table, child *pattern.Pattern) {
	if t == nil {
		return
	}
	exts := make([]IndexedExt, len(views))
	locals := make([]*Share, len(views))
	// Self-computing views are network-bound (remote fragments): fan their
	// shares out concurrently so the round trips pipeline over each
	// fragment's multiplexed connection, and compute the local shares
	// serially in the meantime — local compute stays sequential so the
	// cluster engine's per-worker busy accounting is undistorted. The
	// merge below is order-insensitive to completion: exts is indexed by
	// view, so the output row order is identical however the shares land.
	var pipelined sync.WaitGroup
	for i, v := range views {
		if be, ok := v.(BatchExtender); ok {
			pipelined.Add(1)
			go func(i int, be BatchExtender) {
				defer pipelined.Done()
				exts[i] = be.ExtendIndexed(t, child)
			}(i, be)
		}
	}
	for i, v := range views {
		if _, ok := v.(BatchExtender); !ok {
			locals[i] = ExtendShare(v, t, child)
			exts[i] = locals[i].IndexedExt
		}
	}
	pipelined.Wait()
	closing := child.N() == t.P.N()
	total := 0
	for _, ext := range exts {
		total += len(ext.ParentRows)
	}
	out.ParentRows = slices.Grow(out.ParentRows[:0], total)
	if !closing {
		out.NewCol = slices.Grow(out.NewCol[:0], total)
	}
	rows := t.Len()
	cur := make([]int, len(exts))
	for r := 0; r < rows; r++ {
		hit := false
		for i := range exts {
			pr := exts[i].ParentRows
			for cur[i] < len(pr) && int(pr[cur[i]]) == r {
				if !closing {
					out.ParentRows = append(out.ParentRows, uint32(r))
					out.NewCol = append(out.NewCol, exts[i].NewCol[cur[i]])
				}
				cur[i]++
				hit = true
			}
		}
		if closing && hit {
			out.ParentRows = append(out.ParentRows, uint32(r))
		}
	}
	for _, sh := range locals {
		sh.Release()
	}
}
