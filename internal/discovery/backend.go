package discovery

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// Handle identifies a pattern's materialised match state inside a Backend.
type Handle interface{}

// PatOut is the verification result of one pattern work unit.
type PatOut struct {
	H       Handle
	Support int
	Rows    int
	// OK is false if the work unit was aborted (row cap exceeded).
	OK bool
}

// Backend supplies pattern matching and candidate validation to the miner.
// The sequential backend keeps one in-memory match table per pattern;
// the parallel backend (package parallel) partitions each table across
// simulated cluster workers, performs distributed incremental joins and
// aggregates validation results at the master, charging communication to
// the cluster cost model.
//
// Seeding and extension are batched at level granularity: ParDis
// distributes all of a level's work units (Q, e) across the workers in one
// superstep (Section 6.2), so per-pattern round trips would misrepresent
// its cost.
type Backend interface {
	// SeedBatch materialises the matches of single-node patterns.
	SeedBatch(ps []*pattern.Pattern) []PatOut
	// ExtendBatch materialises each child's matches from its parent's by
	// incremental join (children[i] = parent pattern of parents[i] plus
	// one edge).
	ExtendBatch(parents []Handle, children []*pattern.Pattern) []PatOut
	// Release frees a pattern's match state.
	Release(h Handle)
	// Evaluate builds the literal-satisfaction index of the pool over the
	// pattern's matches. The caller must Release the evaluator.
	Evaluate(h Handle, pool []core.Literal) Evaluator
	// Constants returns, for every (variable, attribute ∈ gamma) pair, the
	// up-to-max most frequent observed values at that variable across the
	// pattern's matches, indexed [v*len(gamma)+ai]. Batched so the
	// parallel backend collects all pairs in a single superstep.
	Constants(h Handle, nvars int, gamma []string, max int) [][]string
}

// Evaluator answers candidate-validation queries for one pattern against
// one literal pool. X arguments are indexes into the pool.
type Evaluator interface {
	// Violated reports whether some match satisfies all of X but not l:
	// G ⊭ Q[x̄](X → pool[l]).
	Violated(x []int, l int) bool
	// SupportXl returns |Q(G, Xl, z)|: distinct pivots over matches
	// satisfying X and l.
	SupportXl(x []int, l int) int
	// SupportX returns |Q(G, X, z)|.
	SupportX(x []int) int
	// CoHolds reports, for every pool literal j, whether some match
	// satisfies X ∪ {j}. NHSpawn emits a negative GFD for each j with
	// CoHolds[j] == false (Section 5.1).
	CoHolds(x []int) []bool
	// AttrPresent reports whether attribute attr occurs at variable v in
	// at least one match (the plausibility filter for negative literals).
	AttrPresent(v int, attr string) bool
	// Release frees the evaluator's index.
	Release()
}

// ---------------------------------------------------------------------------
// Sequential backend
// ---------------------------------------------------------------------------

// SeqBackend is the single-machine Backend: one match table per pattern,
// bitset-indexed literal evaluation. It matches against any graph.View —
// normally the full graph, but a fragment view works identically, which is
// what the parallel backend's per-worker evaluation builds on.
//
// A level's ExtendBatch work units are independent, so they run on a
// GOMAXPROCS-bounded worker pool; results are merged in deterministic
// level order, so output is identical to a serial run.
type SeqBackend struct {
	v        graph.View
	maxRows  int
	stats    *Stats
	liveRows int
	vc       *ValueCounter // reusable constant-count scratch (Constants is driver-serial)
	pc       *pivotCounter // reusable distinct-pivot scratch (the miner evaluates one pattern at a time)
}

// NewSeqBackend returns a sequential backend over v. maxRows caps match
// tables (0 = unlimited); stats, when non-nil, receives table counters.
func NewSeqBackend(v graph.View, maxRows int, stats *Stats) *SeqBackend {
	if g, ok := v.(*graph.Graph); ok {
		// Compile the CSR up front: ExtendBatch reads the view from several
		// goroutines, and a lazily-finalizing graph is not a concurrent-safe
		// reader until finalized.
		g.Finalize()
	}
	return &SeqBackend{v: v, maxRows: maxRows, stats: stats}
}

// View exposes the matching surface the backend runs against.
func (b *SeqBackend) View() graph.View { return b.v }

type seqHandle struct {
	table *match.Table
}

func (b *SeqBackend) bookkeep(rows int) {
	b.liveRows += rows
	if b.stats == nil {
		return
	}
	b.stats.TotalTableRows += rows
	if rows > b.stats.MaxTableRows {
		b.stats.MaxTableRows = rows
	}
	if b.liveRows > b.stats.PeakLiveRows {
		b.stats.PeakLiveRows = b.liveRows
	}
}

// SeedBatch implements Backend.
func (b *SeqBackend) SeedBatch(ps []*pattern.Pattern) []PatOut {
	out := make([]PatOut, len(ps))
	for i, p := range ps {
		t := match.NewSingleNodeTable(b.v, p)
		b.bookkeep(t.Len())
		out[i] = PatOut{H: &seqHandle{table: t}, Support: t.Support(), Rows: t.Len(), OK: true}
	}
	return out
}

// ExtendBatch implements Backend: the level's incremental joins run
// concurrently on a GOMAXPROCS-bounded pool of workers sharing one
// match.ChunkedExtend. Children with a large estimated output are split
// into parent-row chunks so one fat pattern — a hub-heavy pivot run —
// cannot serialise the level behind a single worker: idle workers steal
// its remaining chunks, and the last one gathers them into the child
// table in chunk order, which reproduces the unchunked row order exactly.
// The results — including supports, computed inside the workers — are
// folded into stats and PatOuts in level order afterwards, so the output
// and every counter are independent of scheduling.
func (b *SeqBackend) ExtendBatch(parents []Handle, children []*pattern.Pattern) []PatOut {
	type ext struct {
		t       *match.Table
		support int
	}
	exts := make([]ext, len(children))
	workers := min(runtime.GOMAXPROCS(0), len(children))
	maxChunks := 1 // one worker: nothing to steal, so never split
	if workers > 1 {
		maxChunks = 2 * workers
	}
	batch := match.NewChunkedExtend(mStealChunks, hStealChunk)
	views := []graph.View{b.v}
	for i, child := range children {
		batch.Add(b.v, views, parents[i].(*seqHandle).table, child, maxChunks, func(t *match.Table) {
			sup := 0
			if b.maxRows <= 0 || t.Len() <= b.maxRows {
				sup = t.Support()
			}
			exts[i] = ext{t: t, support: sup}
		})
	}
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch.Work()
		}()
	}
	batch.Work()
	wg.Wait()

	out := make([]PatOut, len(children))
	for i, e := range exts {
		if b.maxRows > 0 && e.t.Len() > b.maxRows {
			if b.stats != nil {
				b.stats.Aborted++
			}
			continue
		}
		b.bookkeep(e.t.Len())
		out[i] = PatOut{H: &seqHandle{table: e.t}, Support: e.support, Rows: e.t.Len(), OK: true}
	}
	return out
}

// Release implements Backend.
func (b *SeqBackend) Release(h Handle) {
	if h == nil {
		return
	}
	sh := h.(*seqHandle)
	if sh.table != nil {
		b.liveRows -= sh.table.Len()
		sh.table = nil
	}
}

// Constants implements Backend: every (variable, attribute) pair is one
// column scan counting ValueIDs into a shared dense scratch (constants.go)
// — the attribute columns resolve once per call, and the only maps left
// are the two symbol lookups per gamma entry.
func (b *SeqBackend) Constants(h Handle, nvars int, gamma []string, max int) [][]string {
	t := h.(*seqHandle).table
	out := make([][]string, nvars*len(gamma))
	cols := make([]graph.AttrColumn, len(gamma))
	for ai, attr := range gamma {
		if aid, ok := b.v.LookupAttr(attr); ok {
			cols[ai] = b.v.AttrColumn(aid)
		}
	}
	if b.vc == nil {
		b.vc = NewValueCounter(b.v.NumValues())
	}
	vc := b.vc
	for v := 0; v < nvars; v++ {
		col := t.Col(v)
		for ai := range gamma {
			vc.CountColumn(cols[ai], col)
			out[v*len(gamma)+ai] = vc.Top(max, b.v.ValueName)
		}
	}
	return out
}

// ObservedConstantCounts returns the frequency of each value of attr at
// variable v over the table's rows, as strings. It is the map-based
// reference form of ObservedValueCounts (constants.go), retained for
// differential tests and one-off callers; the backends count ValueIDs
// into a dense scratch instead.
func ObservedConstantCounts(g graph.View, t *match.Table, v int, attr string) map[string]int {
	counts := make(map[string]int)
	for _, node := range t.Col(v) {
		if val, ok := g.Attr(node, attr); ok {
			counts[val]++
		}
	}
	return counts
}

// TopConstants returns the up-to-max most frequent values in counts,
// ordered by descending count then value — the reference form of
// ValueCounter.Top, kept alongside ObservedConstantCounts.
func TopConstants(counts map[string]int, max int) []string {
	vals := make([]string, 0, len(counts))
	for val := range counts {
		vals = append(vals, val)
	}
	sort.Slice(vals, func(i, j int) bool {
		ci, cj := counts[vals[i]], counts[vals[j]]
		if ci != cj {
			return ci > cj
		}
		return vals[i] < vals[j]
	})
	if len(vals) > max {
		vals = vals[:max]
	}
	return vals
}

// Evaluate implements Backend. Every evaluator shares the backend's
// pivot counter: the miner runs one pattern's lattice at a time.
func (b *SeqBackend) Evaluate(h Handle, pool []core.Literal) Evaluator {
	if b.pc == nil {
		b.pc = newPivotCounter(b.v.NumNodes())
	}
	e := NewTableEval(b.v, h.(*seqHandle).table, pool)
	e.pc = b.pc
	return e
}

// TableEval indexes literal satisfaction per match row as bitsets and
// answers validation queries in O(rows/64) words. It is the per-worker
// evaluation unit: the sequential backend uses one over the whole table,
// the parallel backend one per fragment.
type TableEval struct {
	g      graph.View
	t      *match.Table
	pivots []graph.NodeID // the table's pivot column (shared storage)
	sat    []Bitset       // per pool literal
	full   Bitset         // all rows
	buf    Bitset         // scratch for AND(X)
	pc     *pivotCounter  // distinct-pivot scratch of SupportXl/SupportX, made on first use
	pool   []core.Literal
	// attrPresent caches attribute presence per (variable, attribute).
	attrPresent map[attrKey]bool
}

type attrKey struct {
	v    int
	attr string
}

// NewTableEval builds the satisfaction index of pool over the columnar
// table t. Each literal's bitset is filled by a column scan (eval.SatRows);
// the pivot column is shared with the table, not copied. It evaluates
// against any graph.View: ParDis workers pass their fragment views.
func NewTableEval(g graph.View, t *match.Table, pool []core.Literal) *TableEval {
	n := t.Len()
	e := &TableEval{
		g:           g,
		t:           t,
		pivots:      t.PivotCol(),
		sat:         make([]Bitset, len(pool)),
		full:        NewBitset(n),
		buf:         NewBitset(n),
		pool:        pool,
		attrPresent: make(map[attrKey]bool),
	}
	e.full.Fill(n)
	for j, l := range pool {
		e.sat[j] = NewBitset(n)
		eval.SatRows(g, t, l, e.sat[j].Set)
	}
	return e
}

// andX computes AND over the X bitmaps into the scratch buffer.
func (e *TableEval) andX(x []int) Bitset {
	e.buf.CopyFrom(e.full)
	for _, j := range x {
		e.buf.AndWith(e.sat[j])
	}
	return e.buf
}

// Violated implements Evaluator.
func (e *TableEval) Violated(x []int, l int) bool {
	return e.andX(x).AnyAndNot(e.sat[l])
}

// ForEachPivotXl streams the pivots (with row-level repeats) of rows
// satisfying X ∧ l; the caller deduplicates. Avoids per-call allocation on
// the parallel hot path.
func (e *TableEval) ForEachPivotXl(x []int, l int, fn func(graph.NodeID)) {
	ax := e.andX(x)
	ax.ForEachAnd(e.sat[l], func(i int) { fn(e.pivots[i]) })
}

// ForEachPivotX streams the pivots of rows satisfying X.
func (e *TableEval) ForEachPivotX(x []int, fn func(graph.NodeID)) {
	ax := e.andX(x)
	ax.ForEach(func(i int) { fn(e.pivots[i]) })
}

// SupportXl implements Evaluator.
func (e *TableEval) SupportXl(x []int, l int) int {
	return e.countPivots(e.andX(x), e.sat[l])
}

// SupportX implements Evaluator.
func (e *TableEval) SupportX(x []int) int {
	ax := e.andX(x)
	return e.countPivots(ax, ax)
}

// countPivots counts the distinct pivots of the rows set in both a and b.
func (e *TableEval) countPivots(a, b Bitset) int {
	if e.pc == nil {
		e.pc = newPivotCounter(e.g.NumNodes())
	}
	c := e.pc
	c.reset()
	for wi, w := range a {
		w &= b[wi]
		for w != 0 {
			c.add(e.pivots[wi<<6|bits.TrailingZeros64(w)])
			w &= w - 1
		}
	}
	return c.n
}

// pivotCounter counts distinct pivots in a buffer of generation stamps
// indexed by NodeID: reset is one increment, not a clear, so one counter
// serves every support query of a run without allocating. Its size is
// one word per graph node, independent of table sizes.
type pivotCounter struct {
	stamp []uint32
	gen   uint32
	n     int
}

// newPivotCounter returns a counter for the NodeIDs of a view with
// numNodes nodes.
func newPivotCounter(numNodes int) *pivotCounter {
	return &pivotCounter{stamp: make([]uint32, numNodes), gen: 1}
}

// reset starts a new count.
func (c *pivotCounter) reset() {
	c.n = 0
	c.gen++
	if c.gen == 0 { // wrapped: old stamps could collide with new ones
		clear(c.stamp)
		c.gen = 1
	}
}

// add counts v if it is new to the current count.
func (c *pivotCounter) add(v graph.NodeID) {
	if c.stamp[v] != c.gen {
		c.stamp[v] = c.gen
		c.n++
	}
}

// CoHolds implements Evaluator.
func (e *TableEval) CoHolds(x []int) []bool {
	ax := e.andX(x)
	out := make([]bool, len(e.sat))
	for j := range e.sat {
		out[j] = ax.AnyAnd(e.sat[j])
	}
	return out
}

// AttrPresent implements Evaluator: an interned column scan that stops at
// the first carrying node (an attribute carried by no node at all skips
// the scan outright).
func (e *TableEval) AttrPresent(v int, attr string) bool {
	key := attrKey{v, attr}
	if p, ok := e.attrPresent[key]; ok {
		return p
	}
	present := false
	if aid, ok := e.g.LookupAttr(attr); ok {
		col := e.g.AttrColumn(aid)
		if d := col.Dense(); d != nil {
			for _, node := range e.t.Col(v) {
				if d[node] != graph.NoValue {
					present = true
					break
				}
			}
		} else if col.Len() > 0 {
			for _, node := range e.t.Col(v) {
				if col.ValueAt(node) != graph.NoValue {
					present = true
					break
				}
			}
		}
	}
	e.attrPresent[key] = present
	return present
}

// Release implements Evaluator.
func (e *TableEval) Release() {
	e.sat = nil
	e.t = nil
	e.pivots = nil
}
