package match

import (
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// StealMinChunk is the smallest parent-row range worth making a separate
// stealable chunk: below it a chunk's scheduling and gather overhead
// outweighs the balance gain, so smaller parents stay whole.
const StealMinChunk = 4096

// ChunkedExtend runs a batch of joins as stealable work units: the
// extend plan shared by the sequential backend's worker pool and the
// parallel backend's stealing superstep. Add splits each join's parent
// rows into chunks sized on estimated output; Work, called on every
// worker goroutine, pulls chunks off one atomic cursor regardless of
// which join they belong to, so workers that finish early steal the
// remaining chunks of a fat one. Each chunk computes a pooled share; the
// worker that finishes a join's last chunk gathers all of its shares, in
// chunk order, into the child table — byte-identical to the unchunked
// ExtendRowsViews — and hands it to the join's done callback.
type ChunkedExtend struct {
	jobs   []*chunkJob
	units  []chunkUnit
	cursor atomic.Int64

	chunks    *obs.Counter   // chunks of split joins run
	chunkTime *obs.Histogram // per-chunk share computation time
}

// chunkJob is one join of the batch.
type chunkJob struct {
	views     []graph.View
	t         *Table
	child     *pattern.Pattern
	cuts      []int    // chunk c covers parent rows [cuts[c], cuts[c+1])
	shares    []*Share // chunk c's share, written by the worker that ran it
	remaining atomic.Int32
	done      func(*Table)
}

type chunkUnit struct{ job, chunk int }

// NewChunkedExtend returns an empty batch. chunks and chunkTime, when
// non-nil, count the chunks of split joins and time their shares (whole
// joins are not counted).
func NewChunkedExtend(chunks *obs.Counter, chunkTime *obs.Histogram) *ChunkedExtend {
	return &ChunkedExtend{chunks: chunks, chunkTime: chunkTime}
}

// Add plans the join of t by child's last edge against views, split into
// at most maxChunks parent-row chunks. The chunk count follows estimated
// output (EstimateExtendRows against est), not input rows: a hub parent
// with few rows but a huge fan-out is exactly the join that would
// serialise a batch if it stayed whole. A join costing less than two
// StealMinChunk-row chunks stays whole, and no chunk is empty. done
// receives the child table on the worker that completes the join. Add
// must not be called once Work has started.
func (c *ChunkedExtend) Add(est graph.View, views []graph.View, t *Table, child *pattern.Pattern, maxChunks int, done func(*Table)) {
	rows := t.Len()
	k := 1
	if maxChunks > 1 {
		cost := max(rows, EstimateExtendRows(est, t, child))
		if cost >= 2*StealMinChunk {
			k = max(min(maxChunks, cost/StealMinChunk, rows), 1)
		}
	}
	j := &chunkJob{views: views, t: t, child: child, done: done}
	if k == 1 {
		j.cuts = []int{0, rows}
	} else {
		size := (rows + k - 1) / k
		for lo := 0; lo < rows; lo += size {
			j.cuts = append(j.cuts, lo)
		}
		j.cuts = append(j.cuts, rows)
	}
	n := len(j.cuts) - 1
	j.shares = make([]*Share, n)
	j.remaining.Store(int32(n))
	for ch := 0; ch < n; ch++ {
		c.units = append(c.units, chunkUnit{job: len(c.jobs), chunk: ch})
	}
	c.jobs = append(c.jobs, j)
}

// Work runs chunks until none are left. Call it from every worker
// goroutine of the batch; it is also correct on one.
func (c *ChunkedExtend) Work() {
	for {
		u := int(c.cursor.Add(1)) - 1
		if u >= len(c.units) {
			return
		}
		unit := c.units[u]
		j := c.jobs[unit.job]
		if len(j.shares) == 1 {
			j.shares[0] = computeShare(j.views, j.t, j.child)
		} else {
			start := time.Now()
			lo, hi := j.cuts[unit.chunk], j.cuts[unit.chunk+1]
			j.shares[unit.chunk] = computeShare(j.views, j.t.Slice(lo, hi), j.child)
			c.chunks.Inc()
			c.chunkTime.ObserveSince(start)
		}
		if j.remaining.Add(-1) != 0 {
			continue
		}
		// Last chunk of this join: every other chunk's share write
		// happens-before its decrement, so the gather sees them all.
		out := gatherShares(j.t, j.child, j.shares, j.cuts)
		for _, sh := range j.shares {
			sh.Release()
		}
		j.shares = nil
		j.done(out)
	}
}
