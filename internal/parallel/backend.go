package parallel

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// Options configures the parallel backend.
type Options struct {
	// LoadBalance redistributes skewed match tables across workers after
	// each incremental join (Section 6.2); disabling it yields the
	// ParGFDnb baseline.
	LoadBalance bool
	// SkewFactor triggers redistribution when the largest per-worker table
	// exceeds SkewFactor × mean. Default 1.25.
	SkewFactor float64
	// MaxTableRows aborts extensions whose global table would exceed this
	// many rows. 0 = unlimited.
	MaxTableRows int
	// WorkSteal lets idle workers steal parent-row chunks of other
	// workers' incremental-join work during the extend superstep, so a
	// hub-heavy fragment cannot serialise a level behind one worker. It
	// only engages in cluster Concurrent mode with no remote fragments
	// (under Makespan the workers run sequentially and stealing would
	// corrupt busy-time attribution; remote wire-byte draining attributes
	// per worker). The mined output is identical either way.
	WorkSteal bool
	// Membership, if set, is consulted at every superstep boundary —
	// before each seed and extend batch — so cluster-map changes (a
	// member joining or replacing a dead one) are applied between
	// supersteps, never inside one. The remote package's Balancer
	// satisfies it.
	Membership interface{ ApplyAtBoundary() }
}

func (o Options) withDefaults() Options {
	if o.SkewFactor <= 0 {
		o.SkewFactor = 1.25
	}
	return o
}

// Backend is the ParDis worker pool: it implements discovery.Backend with
// per-fragment match tables, distributed incremental joins (each worker
// joins its local matches Q(F_s) with the shipped single-edge matches
// e(F_t) of all fragments), match redistribution for load balancing, and
// master-side aggregation of supports (pivot-set unions) and validation
// flags.
type Backend struct {
	g     graph.View
	eng   *cluster.Engine
	frags []Fragment
	opts  Options
	stats *discovery.Stats
	// ctx, when cancelled, makes the batch entry points (the superstep
	// boundaries) return failed PatOuts instead of doing work, so the
	// mining driver's frontier drains and the run stops cleanly between
	// supersteps.
	ctx context.Context
	// transferTrackers are the remote fragment views in frags (detected
	// structurally — the remote package is not imported). Their wire-byte
	// counters are drained after each worker's join and charged as
	// measured communication, replacing the declared cost-model volume.
	transferTrackers []transferTracker
	// hedgeTrackers are the fragment views exposing drainable hedged-read
	// counters (remote fragments with hedging enabled); drained at each
	// batch tail into the engine's Stats.
	hedgeTrackers []hedgeTracker
	// localOthers[w] counts the non-remote fragments t ≠ w whose
	// single-edge matches worker w still receives at declared cost.
	localOthers []int64
	// workerViews[w] is the view order of worker w's incremental joins:
	// its own fragment index first, then the other fragments' in worker
	// order — the received e(F_t) of Section 6.2, which in the simulated
	// cluster are the other workers' SubCSR indexes (their shipment is
	// charged as communication).
	workerViews [][]graph.View
	// edgeCountCache caches |e(G)| per (srcLabel, edgeLabel, dstLabel)
	// pattern-edge shape, the volume shipped to every worker during an
	// incremental join.
	edgeCountCache map[graph.TripleKey]int64
	tripleCount    map[graph.TripleKey]int
	// Constant-count scratches, one per worker plus the master's, reused
	// across Constants calls (Constants itself is driver-serial; within a
	// superstep each worker touches only its own counter).
	workerVC []*discovery.ValueCounter
	masterVC *discovery.ValueCounter
}

// NewBackend builds a ParDis backend over v fragmented across eng's
// workers: an edge-balanced vertex cut compiled into one fragment-local
// SubCSR index per worker. stats may be nil.
func NewBackend(v graph.View, eng *cluster.Engine, opts Options, stats *discovery.Stats) *Backend {
	return NewBackendWithFragments(v, eng, VertexCut(v, eng.Workers()), opts, stats)
}

// NewBackendWithFragments builds a ParDis backend over pre-built
// fragments, one per worker of eng — either the heap SubCSRs of a
// VertexCut or snapshot-backed MappedGraph fragments reattached with
// Attach, which is how workers run against spilled fragments without
// rebuilding any index. v is the master's view of the whole graph (its
// node store is shared by every fragment); stats may be nil.
func NewBackendWithFragments(v graph.View, eng *cluster.Engine, frags []Fragment, opts Options, stats *discovery.Stats) *Backend {
	return newBackend(v, eng, frags, opts, stats, graph.NewStats(v))
}

// newBackend is the shared constructor; gstats carries the full-graph
// frequency statistics so callers that already computed them (the mining
// driver builds a discovery.Profile from the same scan) do not pay a
// second O(V+E+attrs) pass over the view.
func newBackend(v graph.View, eng *cluster.Engine, frags []Fragment, opts Options, stats *discovery.Stats, gstats *graph.Stats) *Backend {
	if len(frags) != eng.Workers() {
		panic(fmt.Sprintf("parallel: %d fragments for %d workers", len(frags), eng.Workers()))
	}
	// Compile both planes (CSR and attribute columns) before the workers
	// read the graph concurrently, like the sequential backend does.
	if g, ok := v.(*graph.Graph); ok {
		g.Finalize()
	}
	b := &Backend{
		g:              v,
		eng:            eng,
		frags:          frags,
		opts:           opts.withDefaults(),
		stats:          stats,
		ctx:            context.Background(),
		edgeCountCache: make(map[graph.TripleKey]int64),
		tripleCount:    gstats.TripleCount,
	}
	n := eng.Workers()
	b.workerViews = make([][]graph.View, n)
	remote := make([]bool, n)
	for t := 0; t < n; t++ {
		if tt, ok := b.frags[t].Sub.(transferTracker); ok {
			remote[t] = true
			b.transferTrackers = append(b.transferTrackers, tt)
		}
		if ht, ok := b.frags[t].Sub.(hedgeTracker); ok {
			b.hedgeTrackers = append(b.hedgeTrackers, ht)
		}
	}
	b.localOthers = make([]int64, n)
	for w := 0; w < n; w++ {
		views := make([]graph.View, 0, n)
		views = append(views, b.frags[w].Sub)
		for t := 0; t < n; t++ {
			if t != w {
				views = append(views, b.frags[t].Sub)
				if !remote[t] {
					b.localOthers[w]++
				}
			}
		}
		b.workerViews[w] = views
	}
	return b
}

// transferTracker is how the backend recognises a remote fragment view
// without importing the remote package: remote.RemoteFragment exposes a
// drainable counter of bytes that actually crossed its connection.
type transferTracker interface {
	TakeTransferred() int64
}

// hedgeTracker is the same structural trick for hedged replica reads:
// remote.RemoteFragment exposes drainable counters of hedges fired and
// hedges won by the local recompute.
type hedgeTracker interface {
	TakeHedges() (fired, won int64)
}

// applyMembership runs the membership hook at a superstep boundary.
func (b *Backend) applyMembership() {
	if b.opts.Membership != nil {
		b.opts.Membership.ApplyAtBoundary()
	}
}

// cancelled reports a dead context and, once per run, marks the stats.
func (b *Backend) cancelled() bool {
	if b.ctx.Err() == nil {
		return false
	}
	if b.stats != nil {
		b.stats.Cancelled = true
	}
	return true
}

// failAll is the batch result of a cancelled run: every pattern reports
// !OK, so the driver treats the whole level as infrequent and the
// generation tree stops growing — the run winds down between supersteps
// instead of mid-join.
func failAll(n int) []discovery.PatOut {
	return make([]discovery.PatOut, n)
}

// parHandle holds a pattern's columnar match table partitioned across
// workers: parts[w] is worker w's share, a *match.Table whose columns are
// either zero-copy slices of a seed table (Split by ownership) or locally
// built extension columns. Ownership is disjoint: the global match set is
// the disjoint union of the per-worker parts (each match descends from a
// seed row owned by exactly one fragment). This is exactly what ParDis
// ships between workers — flat node-ID columns, not row objects.
type parHandle struct {
	p     *pattern.Pattern
	parts []*match.Table
	rows  int
}

// recount refreshes the global row count from the per-worker parts
// (written inside supersteps, which may run concurrently).
func (h *parHandle) recount() {
	h.rows = 0
	for _, part := range h.parts {
		if part != nil {
			h.rows += part.Len()
		}
	}
}

func (b *Backend) n() int { return b.eng.Workers() }

// FragmentEdges returns the per-worker edge count of the vertex cut — the
// size of each fragment-local SubCSR index.
func (b *Backend) FragmentEdges() []int {
	out := make([]int, len(b.frags))
	for w := range b.frags {
		out[w] = b.frags[w].EdgeCount()
	}
	return out
}

func (b *Backend) bookkeep(rows int) {
	if b.stats == nil {
		return
	}
	b.stats.TotalTableRows += rows
	if rows > b.stats.MaxTableRows {
		b.stats.MaxTableRows = rows
	}
}

// SeedBatch implements discovery.Backend: each single-node pattern is
// materialised once as a columnar table (its column ascending by node ID)
// and Split by node ownership into per-fragment zero-copy column slices —
// no per-worker rescan and no row copies. Per-pattern pivot sets are then
// shipped for master-side union.
func (b *Backend) SeedBatch(ps []*pattern.Pattern) []discovery.PatOut {
	if b.cancelled() {
		return failAll(len(ps))
	}
	b.applyMembership()
	hs := make([]*parHandle, len(ps))
	for i, p := range ps {
		hs[i] = &parHandle{p: p}
	}
	b.eng.Master("seed scan", func() {
		for i, p := range ps {
			full := match.NewSingleNodeTable(b.g, p)
			hs[i].parts = b.splitByOwnership(full)
		}
	})
	out := make([]discovery.PatOut, len(ps))
	supports := b.aggregateSupports(hs)
	for i, h := range hs {
		h.recount()
		b.bookkeep(h.rows)
		out[i] = discovery.PatOut{H: h, Support: supports[i], Rows: h.rows, OK: true}
	}
	return out
}

// splitByOwnership slices a table whose pivot column is ascending by node
// ID into per-fragment parts along the fragments' contiguous ownership
// ranges. The parts share the table's column storage (Table.Split): seeding
// a level costs one scan total, not one scan per worker.
func (b *Backend) splitByOwnership(t *match.Table) []*match.Table {
	col := t.Col(0)
	cuts := make([]int, 0, b.n()-1)
	for w := 1; w < b.n(); w++ {
		lo := b.frags[w].NodeLo
		cuts = append(cuts, sort.Search(len(col), func(r int) bool { return col[r] >= lo }))
	}
	return t.Split(cuts...)
}

// ExtendBatch implements discovery.Backend: the distributed incremental
// joins Q'(F_s) = Q(F_s) ⋈ e(G) of Section 6.2, with all of the level's
// work units (Q, e) distributed across the workers in a single superstep.
// Every worker receives the other fragments' matches of each new
// single-edge pattern e (charged as communication) and extends its local
// rows against its own fragment index plus the received fragments — the
// per-worker probe surface is the fragment views, never the full graph's
// CSR, so the compute accounting reflects fragment-local work.
func (b *Backend) ExtendBatch(parents []discovery.Handle, children []*pattern.Pattern) []discovery.PatOut {
	if b.cancelled() {
		return failAll(len(children))
	}
	b.applyMembership()
	hs := make([]*parHandle, len(children))
	for i, child := range children {
		hs[i] = &parHandle{p: child, parts: make([]*match.Table, b.n())}
	}
	// Pre-resolve each child's e(G) volume outside the superstep: the
	// cache map is not goroutine-safe, and the pipelined path below runs
	// children concurrently.
	eBytes := make([]int64, len(children))
	for i, child := range children {
		eBytes[i] = b.edgeMatchBytes(child)
	}
	if b.opts.WorkSteal && b.eng.IsConcurrent() && len(b.transferTrackers) == 0 {
		b.extendBatchStealing(parents, children, hs, eBytes)
		return b.extendBatchFinish(hs)
	}
	b.eng.Superstep("extend level", func(w int) {
		extendOne := func(i int, child *pattern.Pattern) {
			ph := parents[i].(*parHandle)
			// Receive e(F_t) for the local fragments t ≠ w at the cost
			// model's declared share; remote fragments are charged below
			// from bytes measured on their connections.
			b.eng.Ship(w, eBytes[i]/int64(b.n())*b.localOthers[w])
			if ph.parts == nil {
				return
			}
			hs[i].parts[w] = match.ExtendRowsViews(b.workerViews[w], ph.parts[w], child)
		}
		if len(b.transferTrackers) > 0 {
			// Remote fragments present: the level's children are
			// network-bound, so run them concurrently and let their RPCs
			// pipeline over the fragments' multiplexed connections instead
			// of queueing round trips child by child. Writes are disjoint
			// (each child owns hs[i].parts[w]) and the engine's Ship
			// accounting is mutex-guarded.
			var wg sync.WaitGroup
			for i, child := range children {
				wg.Add(1)
				go func(i int, child *pattern.Pattern) {
					defer wg.Done()
					extendOne(i, child)
				}(i, child)
			}
			wg.Wait()
		} else {
			// Purely simulated cluster: keep the serial loop so per-worker
			// busy-time measurement stays undistorted by local parallelism.
			for i, child := range children {
				extendOne(i, child)
			}
		}
		// Real comms replace declared volume for remote fragments: drain
		// each remote view's wire-byte counter accrued by this worker's
		// joins. (In Makespan mode workers run sequentially, so the drain
		// attributes bytes to the worker that caused them.)
		for _, tt := range b.transferTrackers {
			b.eng.ShipMeasured(w, tt.TakeTransferred())
		}
	})
	return b.extendBatchFinish(hs)
}

// extendBatchFinish is the driver-serial tail of ExtendBatch, shared by
// the static and work-stealing supersteps: row recount, abort on the row
// cap, optional rebalance, and master-side support aggregation.
func (b *Backend) extendBatchFinish(hs []*parHandle) []discovery.PatOut {
	for _, ht := range b.hedgeTrackers {
		b.eng.RecordHedges(ht.TakeHedges())
	}
	out := make([]discovery.PatOut, len(hs))
	aborted := make([]bool, len(hs))
	for i, h := range hs {
		h.recount()
		if b.opts.MaxTableRows > 0 && h.rows > b.opts.MaxTableRows {
			if b.stats != nil {
				b.stats.Aborted++
			}
			aborted[i] = true
			continue
		}
		b.bookkeep(h.rows)
	}
	if b.opts.LoadBalance {
		b.rebalanceBatch(hs, aborted)
	}
	supports := b.aggregateSupports(hs)
	for i, h := range hs {
		if aborted[i] {
			continue
		}
		out[i] = discovery.PatOut{H: h, Support: supports[i], Rows: h.rows, OK: true}
	}
	return out
}

// extendBatchStealing runs the extend superstep on one shared
// match.ChunkedExtend: the level's (child, owner-part) joins are split
// into parent-row chunk units, and every worker — after charging its own
// declared communication share — pulls units off the shared cursor
// regardless of owner, so workers finishing their own fragment's share
// early steal the remaining chunks of a skewed one. Each unit joins the
// owner's rows against the owner's view order (b.workerViews[owner]), and
// the worker finishing an (i, owner) slot's last chunk gathers its
// chunks in chunk order, so hs[i].parts[owner] is byte-identical to what
// the static superstep produces.
func (b *Backend) extendBatchStealing(parents []discovery.Handle, children []*pattern.Pattern, hs []*parHandle, eBytes []int64) {
	n := b.n()
	batch := match.NewChunkedExtend(mStealChunks, hStealChunk)
	for i, child := range children {
		ph := parents[i].(*parHandle)
		if ph.parts == nil {
			continue
		}
		for o := 0; o < n; o++ {
			// Chunks follow estimated output over the whole graph: a
			// hub-heavy part with few rows and huge fan-out must not stay
			// whole.
			batch.Add(b.g, b.workerViews[o], ph.parts[o], child, 2*n, func(t *match.Table) {
				hs[i].parts[o] = t
			})
		}
	}
	b.eng.Superstep("extend level", func(w int) {
		for i := range children {
			b.eng.Ship(w, eBytes[i]/int64(n)*b.localOthers[w])
		}
		batch.Work()
	})
}

// edgeMatchBytes estimates the byte volume of e(G): the matches of the
// child's new single-edge pattern across the whole graph, which the join
// ships to every worker.
func (b *Backend) edgeMatchBytes(child *pattern.Pattern) int64 {
	e := child.LastEdge()
	key := graph.TripleKey{
		SrcLabel:  child.NodeLabels[e.Src],
		EdgeLabel: e.Label,
		DstLabel:  child.NodeLabels[e.Dst],
	}
	if v, ok := b.edgeCountCache[key]; ok {
		return v
	}
	var cnt int64
	for t, c := range b.tripleCount {
		if pattern.LabelMatches(t.SrcLabel, key.SrcLabel) &&
			pattern.LabelMatches(t.EdgeLabel, key.EdgeLabel) &&
			pattern.LabelMatches(t.DstLabel, key.DstLabel) {
			cnt += int64(c)
		}
	}
	v := cnt * 12 // two node IDs + label tag per edge match
	b.edgeCountCache[key] = v
	return v
}

// rebalanceBatch redistributes the rows of every skewed pattern in the
// batch (the skew condition of Section 6.2) in one superstep, charging the
// moved rows as communication to their receivers.
func (b *Backend) rebalanceBatch(hs []*parHandle, skip []bool) {
	n := b.n()
	if n == 1 {
		return
	}
	var skewed []*parHandle
	for i, h := range hs {
		if skip[i] || h.rows == 0 {
			continue
		}
		maxRows := 0
		for _, part := range h.parts {
			if part.Len() > maxRows {
				maxRows = part.Len()
			}
		}
		mean := float64(h.rows) / float64(n)
		if float64(maxRows) > b.opts.SkewFactor*mean && maxRows-int(mean) >= 2 {
			skewed = append(skewed, h)
		}
	}
	if len(skewed) == 0 {
		return
	}
	// Masterside: carve the surplus of every over-target part as zero-copy
	// column slices (Table.Split at the target offset) and pre-assign
	// consecutive surplus ranges to the under-target workers. Only the
	// receiving append copies column data — that copy is the shipped volume.
	type grab struct {
		seg    *match.Table
		lo, hi int
	}
	assigns := make([][][]grab, len(skewed)) // [skewed][worker][]grab
	for i, h := range skewed {
		target := (h.rows + n - 1) / n
		var segs []grab
		for w := range h.parts {
			if h.parts[w].Len() > target {
				halves := h.parts[w].Split(target)
				h.parts[w] = halves[0]
				segs = append(segs, grab{seg: halves[1], lo: 0, hi: halves[1].Len()})
			}
		}
		assigns[i] = make([][]grab, n)
		si := 0
		for w := 0; w < n && si < len(segs); w++ {
			need := target - h.parts[w].Len()
			for need > 0 && si < len(segs) {
				g := segs[si]
				take := g.hi - g.lo
				if take > need {
					take = need
				}
				assigns[i][w] = append(assigns[i][w], grab{seg: g.seg, lo: g.lo, hi: g.lo + take})
				segs[si].lo += take
				if segs[si].lo == segs[si].hi {
					si++
				}
				need -= take
			}
		}
		// The surplus always fits: with target = ceil(rows/n), total
		// receiver capacity Σ(target−len) ≥ Σ(len−target) = surplus, so the
		// loop above drains every segment.
	}
	b.eng.Superstep("rebalance level", func(w int) {
		for i, h := range skewed {
			rowBytes := int64(4*h.p.N() + 8)
			for _, g := range assigns[i][w] {
				h.parts[w].AppendRows(g.seg, g.lo, g.hi)
				b.eng.Ship(w, int64(g.hi-g.lo)*rowBytes)
			}
		}
	})
}

// aggregateSupports computes supp(Q, G) = |Q(G, z)| for every pattern in
// the batch: each worker builds its local pivot sets and ships them; the
// master unions them (summing would double-count pivots matched in several
// fragments).
func (b *Backend) aggregateSupports(hs []*parHandle) []int {
	locals := make([][]map[graph.NodeID]struct{}, b.n())
	b.eng.Superstep("support level", func(w int) {
		sets := make([]map[graph.NodeID]struct{}, len(hs))
		shipped := 0
		for i, h := range hs {
			set := make(map[graph.NodeID]struct{})
			if h.parts != nil {
				for _, v := range h.parts[w].PivotCol() {
					set[v] = struct{}{}
				}
			}
			sets[i] = set
			shipped += len(set)
		}
		locals[w] = sets
		b.eng.Ship(w, int64(4*shipped))
	})
	out := make([]int, len(hs))
	b.eng.Master("support union", func() {
		for i := range hs {
			union := make(map[graph.NodeID]struct{})
			for w := 0; w < b.n(); w++ {
				for v := range locals[w][i] {
					union[v] = struct{}{}
				}
			}
			out[i] = len(union)
		}
	})
	return out
}

// Release implements discovery.Backend.
func (b *Backend) Release(h discovery.Handle) {
	if h != nil {
		h.(*parHandle).parts = nil
	}
}

// Constants implements discovery.Backend: each worker counts the interned
// values of every (variable, attribute) pair over its fragment's rows in
// one superstep — a column scan into a dense ValueID-indexed scratch — and
// ships the observed (ValueID, count) pairs (ValueIDs are global: every
// fragment shares the base graph's value pool, so no translation is
// needed). The master merges the pairs by ValueID and ranks them, with
// value strings resolved only for the final ordering.
func (b *Backend) Constants(h discovery.Handle, nvars int, gamma []string, max int) [][]string {
	ph := h.(*parHandle)
	slots := nvars * len(gamma)
	cols := make([]graph.AttrColumn, len(gamma))
	for ai, attr := range gamma {
		if aid, ok := b.g.LookupAttr(attr); ok {
			cols[ai] = b.g.AttrColumn(aid)
		}
	}
	if b.workerVC == nil {
		b.workerVC = make([]*discovery.ValueCounter, b.n())
		for w := range b.workerVC {
			b.workerVC[w] = discovery.NewValueCounter(b.g.NumValues())
		}
		b.masterVC = discovery.NewValueCounter(b.g.NumValues())
	}
	locals := make([][][]discovery.ValueCount, b.n())
	b.eng.Superstep("constants", func(w int) {
		vc := b.workerVC[w]
		counts := make([][]discovery.ValueCount, slots)
		shipped := 0
		for v := 0; v < nvars; v++ {
			col := ph.parts[w].Col(v)
			for ai := range gamma {
				vc.CountColumn(cols[ai], col)
				c := vc.Drain()
				counts[v*len(gamma)+ai] = c
				shipped += len(c)
			}
		}
		locals[w] = counts
		b.eng.Ship(w, int64(8*shipped)) // 4-byte ValueID + 4-byte count per pair
	})
	out := make([][]string, slots)
	b.eng.Master("constants merge", func() {
		vc := b.masterVC
		for s := 0; s < slots; s++ {
			for w := 0; w < b.n(); w++ {
				for _, p := range locals[w][s] {
					vc.Add(p.Val, p.N)
				}
			}
			out[s] = vc.Top(max, b.g.ValueName)
		}
	})
	return out
}

// Evaluate implements discovery.Backend: one TableEval per worker over its
// fragment's rows; query results are aggregated masterside. Busy time is
// accumulated per worker per call and charged as supersteps on Release
// (one communication round per literal-tree level, matching the batched
// candidate posting of ParDis).
func (b *Backend) Evaluate(h discovery.Handle, pool []core.Literal) discovery.Evaluator {
	ph := h.(*parHandle)
	pe := &parEvaluator{
		b:     b,
		pool:  pool,
		evs:   make([]*discovery.TableEval, b.n()),
		busy:  make([]time.Duration, b.n()),
		share: make([]float64, b.n()),
	}
	total := ph.rows
	for w := range pe.share {
		if total > 0 {
			pe.share[w] = float64(ph.parts[w].Len()) / float64(total)
		} else {
			pe.share[w] = 1 / float64(b.n())
		}
	}
	b.eng.Superstep("index "+ph.p.String(), func(w int) {
		// Each worker indexes its rows against its own fragment view;
		// literal evaluation reads node attributes, which every fragment
		// shares with the base graph's node store.
		pe.evs[w] = discovery.NewTableEval(b.frags[w].Sub, ph.parts[w], pool)
	})
	return pe
}

// parEvaluator fans validation queries out to per-worker TableEvals.
type parEvaluator struct {
	b      *Backend
	pool   []core.Literal
	evs    []*discovery.TableEval
	busy   []time.Duration
	rounds int
	union  map[graph.NodeID]struct{} // reusable pivot-union scratch
	// share[w] is worker w's fraction of the pattern's rows: per-call
	// elapsed time is attributed proportionally (per-worker timers on the
	// sub-microsecond query path would dominate the measurement and grow
	// with n, masking the very scalability being measured). Skewed row
	// distributions therefore still surface as skewed busy times.
	share []float64
}

// perWorker runs fn on every worker's evaluator, attributing the elapsed
// time to workers by their row share.
func (pe *parEvaluator) perWorker(fn func(w int, ev *discovery.TableEval)) {
	start := time.Now()
	for w, ev := range pe.evs {
		fn(w, ev)
		_ = w
	}
	el := time.Since(start)
	for w := range pe.busy {
		pe.busy[w] += time.Duration(float64(el) * pe.share[w])
	}
}

func (pe *parEvaluator) Violated(x []int, l int) bool {
	violated := false
	pe.perWorker(func(w int, ev *discovery.TableEval) {
		if ev.Violated(x, l) {
			violated = true
		}
		pe.b.eng.Ship(w, 1) // SAT flag
	})
	pe.rounds++
	return violated
}

func (pe *parEvaluator) SupportXl(x []int, l int) int {
	union := pe.unionScratch()
	pe.perWorker(func(w int, ev *discovery.TableEval) {
		before := len(union)
		ev.ForEachPivotXl(x, l, func(v graph.NodeID) { union[v] = struct{}{} })
		pe.b.eng.Ship(w, int64(4*(len(union)-before)))
	})
	pe.rounds++
	return len(union)
}

func (pe *parEvaluator) SupportX(x []int) int {
	union := pe.unionScratch()
	pe.perWorker(func(w int, ev *discovery.TableEval) {
		before := len(union)
		ev.ForEachPivotX(x, func(v graph.NodeID) { union[v] = struct{}{} })
		pe.b.eng.Ship(w, int64(4*(len(union)-before)))
	})
	pe.rounds++
	return len(union)
}

// unionScratch returns the cleared reusable pivot-union map.
func (pe *parEvaluator) unionScratch() map[graph.NodeID]struct{} {
	if pe.union == nil {
		pe.union = make(map[graph.NodeID]struct{})
	} else {
		for k := range pe.union {
			delete(pe.union, k)
		}
	}
	return pe.union
}

func (pe *parEvaluator) CoHolds(x []int) []bool {
	out := make([]bool, len(pe.pool))
	pe.perWorker(func(w int, ev *discovery.TableEval) {
		local := ev.CoHolds(x)
		pe.b.eng.Ship(w, int64(len(local)))
		for j, v := range local {
			if v {
				out[j] = true
			}
		}
	})
	pe.rounds++
	return out
}

func (pe *parEvaluator) AttrPresent(v int, attr string) bool {
	present := false
	pe.perWorker(func(w int, ev *discovery.TableEval) {
		if ev.AttrPresent(v, attr) {
			present = true
		}
		pe.b.eng.Ship(w, 1)
	})
	return present
}

// Release charges the accumulated per-worker busy time. The query calls
// issued since Evaluate are batched into a bounded number of communication
// rounds (ParDis posts candidate batches ΣC_ij per literal level, not one
// message per candidate).
func (pe *parEvaluator) Release() {
	rounds := pe.rounds
	const maxRounds = 4 // ≈ one batch per literal level plus the negative spawn
	if rounds > maxRounds {
		rounds = maxRounds
	}
	pe.b.eng.Account("validate", pe.busy, rounds)
	for _, ev := range pe.evs {
		if ev != nil {
			ev.Release()
		}
	}
	pe.evs = nil
}
