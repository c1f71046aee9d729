package match

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file owns the join's output buffers. The kernel never builds a
// table: it appends into a Share, a pooled IndexedExt whose storage is
// reused from call to call, and the child table is written once, by
// gatherShares, into exact-size columns whose length is known from the
// shares before the first copy. A chunked join (chunk.go) keeps one share
// per parent-row chunk and gathers them all at once, so no chunk result
// is ever materialised as a table of its own.

// Share is one join share in pooled storage: the IndexedExt the kernel
// appends to, plus the kernel's per-call scratch. Obtain one from
// ExtendShare and hand it back with Release once its rows have been
// consumed; a released share's slices must not be read again.
type Share struct {
	IndexedExt
	cands []graph.NodeID   // one anchor run's filtered candidates
	neigh [][]graph.NodeID // one closing-edge run's adjacency, per view
	mark  bitset.Bitset    // NodeID marks of the bitset probe; all clear between runs
}

// sharePool recycles shares across joins. It keeps at most
// maxPooledShares of them: enough for every worker's chunks in flight,
// while the surplus of a burst of concurrent joins (one goroutine per
// child when fragments are remote) goes back to the garbage collector
// instead of pinning its peak in the heap. pooled counts the shares put
// and not yet taken; the pool may also drop them at a GC, so an empty
// Get resets the count.
var (
	sharePool sync.Pool
	pooled    atomic.Int64
)

// maxPooledShares bounds sharePool: two chunk batches in flight per
// worker goroutine.
var maxPooledShares = int64(4 * runtime.GOMAXPROCS(0))

// acquireShare takes an empty share from the pool.
func acquireShare() *Share {
	sh, _ := sharePool.Get().(*Share)
	if sh == nil {
		pooled.Store(0)
		return new(Share)
	}
	pooled.Add(-1)
	sh.ParentRows = sh.ParentRows[:0]
	sh.NewCol = sh.NewCol[:0]
	return sh
}

// Release returns sh to the pool, or leaves it to the garbage collector
// when the pool is full. Nil-tolerant.
func (sh *Share) Release() {
	if sh == nil {
		return
	}
	if pooled.Add(1) > maxPooledShares {
		pooled.Add(-1)
		return
	}
	clear(sh.neigh) // drop references to adjacency storage
	sharePool.Put(sh)
}

// Ext returns the share as an IndexedExt over sh's storage, valid until
// Release. NewCol is nil when empty, as the kernel's share always was for
// closing-edge children and empty extensions — the wire format encodes
// that distinction.
func (sh *Share) Ext() IndexedExt {
	ext := IndexedExt{ParentRows: sh.ParentRows}
	if len(sh.NewCol) > 0 {
		ext.NewCol = sh.NewCol
	}
	return ext
}

// clone copies the share into exact-size, caller-owned slices, nil when
// empty (the IndexedExt ExtendIndexed has always returned).
func (sh *Share) clone() IndexedExt {
	var ext IndexedExt
	if len(sh.ParentRows) > 0 {
		ext.ParentRows = slices.Clone(sh.ParentRows)
	}
	if len(sh.NewCol) > 0 {
		ext.NewCol = slices.Clone(sh.NewCol)
	}
	return ext
}

// marks returns the share's NodeID bitset, grown to cover n nodes.
func (sh *Share) marks(n int) bitset.Bitset {
	if len(sh.mark)*64 < n {
		sh.mark = bitset.New(n)
	}
	return sh.mark
}

// ExtendShare computes g's share of the join of t by child's last edge
// into a pooled Share: the fragment server's unit of work. The caller
// must Release it.
func ExtendShare(g graph.View, t *Table, child *pattern.Pattern) *Share {
	mExtendIndexed.Inc()
	sh := acquireShare()
	extendIndexedViews(sh, []graph.View{g}, t, child)
	return sh
}

// computeShare is one join call of the row-table entry points (a whole
// ExtendRows or one chunk of it) into a pooled share. A view that
// computes its own share (a remote fragment) switches the call to the
// index-merge path.
func computeShare(views []graph.View, t *Table, child *pattern.Pattern) *Share {
	sh := acquireShare()
	if hasBatchExtender(views) {
		extendIndexedMerge(sh, views, t, child)
	} else {
		extendIndexedViews(sh, views, t, child)
	}
	mExtendCalls.Inc()
	mExtendRows.Add(int64(len(sh.ParentRows)))
	return sh
}

// gatherShares materialises chunk shares as one child table: shares[c]
// extends parent rows counted from offs[c] (its chunk's first row in t).
// The output length is the sum of the share lengths, so every column —
// each parent column read through the shares' ParentRows, and the new
// variable's column copied from their NewCol — is written exactly once,
// at each chunk's offset, into one allocation cut into cap == len
// columns. Chunks are gathered in slice order, which reproduces the
// unchunked row order exactly.
func gatherShares(t *Table, child *pattern.Pattern, shares []*Share, offs []int) *Table {
	out := NewTable(child)
	n := 0
	for _, sh := range shares {
		n += len(sh.ParentRows)
	}
	if t == nil || n == 0 {
		return out
	}
	pn, nc := len(t.cols), child.N()
	buf := make([]graph.NodeID, n*nc)
	for v, col := range t.cols {
		dst := buf[v*n : (v+1)*n : (v+1)*n]
		i := 0
		for c, sh := range shares {
			base, seg := col[offs[c]:], dst[i:i+len(sh.ParentRows)]
			for k, r := range sh.ParentRows {
				seg[k] = base[r]
			}
			i += len(seg)
		}
		out.cols[v] = dst
	}
	if nc > pn {
		dst := buf[pn*n : nc*n : nc*n]
		i := 0
		for _, sh := range shares {
			i += copy(dst[i:], sh.NewCol)
		}
		out.cols[pn] = dst
	}
	return out
}

// bitsetProbe reports whether a closing-edge run of run rows probing an
// adjacency of deg nodes is cheaper through a NodeID bitset — mark deg
// nodes, test each row in O(1), unmark deg nodes — than through one
// binary search of the adjacency per row.
func bitsetProbe(run, deg int) bool {
	return run >= 8 && deg >= 16 && run*bits.Len(uint(deg)) > 2*deg
}
