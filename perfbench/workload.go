package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/remote"
	"repro/internal/store"
)

// engineKind selects how a workload mines.
type engineKind int

const (
	// seqDis is discovery.MineView followed by discovery.Cover.
	seqDis engineKind = iota
	// parDis is parallel.Mine over heap VertexCut fragments on a
	// concurrent cluster, followed by parallel.Cover.
	parDis
	// remoteDis is parallel.MineFragments over a spilled cut whose
	// worker 0 reads a local mmap and worker 1 is served by an
	// in-process remote.Server over loopback TCP.
	remoteDis
)

// parWorkers is n for every parallel workload: one worker per core of
// the two-core machine the workloads were sized on.
const parWorkers = 2

// workload is one named benchmark input: a graph built for a seed, the
// discovery options, and the engine that mines it.
type workload struct {
	name  string
	kind  engineKind
	graph func(seed int64) *graph.Graph
	opts  discovery.Options
}

var workloads = map[string]*workload{
	"seq-lattice": {name: "seq-lattice", kind: seqDis, graph: latticeGraph, opts: latticeOptions()},
	"seq-join":    {name: "seq-join", kind: seqDis, graph: joinGraph, opts: joinOptions()},
	"pardis-join": {name: "pardis-join", kind: parDis, graph: joinGraph, opts: joinOptions()},
	"remote-join": {name: "remote-join", kind: remoteDis, graph: joinGraph, opts: joinOptions()},
}

// latticeGraph is the paper's DBpedia-like knowledge graph at 1,000
// nodes, generated from seed 42 and renumbered by seed.
func latticeGraph(seed int64) *graph.Graph { return renumbered(dataset.DBpediaSim(1000, 42), seed) }

// latticeOptions is the gfdbench harness setting (k=3, σ=80, Γ = top-5
// attributes, 5 constants, |X| ≤ 1, wildcards, 4 levels, 300 negatives)
// with one change: at most 30 patterns are kept per level instead of
// 100, which keeps one discovery near 3 s on two cores instead of about
// 10 s. The literal lattice and the cover still do most of the work.
func latticeOptions() discovery.Options {
	return discovery.Options{
		K:                       3,
		Support:                 80,
		ConstantsPerAttr:        5,
		MaxX:                    1,
		WildcardNodes:           true,
		MaxExtensionsPerPattern: 20,
		MaxPatternsPerLevel:     30,
		MaxLevels:               4,
		MaxNegatives:            300,
		MaxTableRows:            300000,
	}
}

// joinGraph is a hub-heavy synthetic graph: 5,000 nodes, 25,000 edge
// draws (about 17,300 after de-duplication), Zipf endpoint skew 1.2,
// generated from seed 8 and renumbered by seed.
func joinGraph(seed int64) *graph.Graph {
	return renumbered(dataset.Synthetic(dataset.SyntheticConfig{Nodes: 5000, Edges: 25000, Skew: 1.2, Seed: 8}), seed)
}

// renumbered returns a copy of g whose node IDs are a seeded random
// permutation of g's and whose edges are added in a seeded random order.
// The copy is isomorphic to g, so it has the same patterns, supports and
// Σ, and one discovery does the same work on every seed. The seed still
// changes node IDs and therefore the order of the label indexes, the CSR
// runs, the match tables and, for the parallel workloads, which nodes
// each VertexCut fragment holds.
//
// The generator seed is fixed per workload because regenerating the
// graph per seed changed the work itself: on the join graph the
// generator's seed decides which labels the Zipf hubs carry, and the
// mined Σ ranged from 2 to 39 GFDs over seeds 1–8.
func renumbered(g *graph.Graph, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	perm := r.Perm(n) // old ID → new ID
	old := make([]graph.NodeID, n)
	for o, v := range perm {
		old[v] = graph.NodeID(o)
	}
	out := graph.New(n, g.NumEdges())
	for _, o := range old {
		out.AddNode(g.Label(o), g.Attrs(o))
	}
	var edges []graph.Edge
	g.Edges(func(e graph.Edge) bool {
		edges = append(edges, e)
		return true
	})
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		out.AddEdge(graph.NodeID(perm[e.Src]), graph.NodeID(perm[e.Dst]), e.Label)
	}
	out.Finalize()
	return out
}

// joinOptions keeps the literal pool to one attribute with one constant
// so pattern joins dominate the run.
func joinOptions() discovery.Options {
	return discovery.Options{
		K:                       3,
		Support:                 50,
		ActiveAttrs:             []string{"attr0"},
		ConstantsPerAttr:        1,
		MaxX:                    1,
		WildcardNodes:           true,
		MaxExtensionsPerPattern: 20,
		MaxPatternsPerLevel:     100,
		MaxLevels:               4,
		MaxNegatives:            -1,
		MaxTableRows:            2000000,
	}
}

// parOptions is the ParDis configuration of both parallel workloads.
// MaxTableRows mirrors parallel.Mine, which copies the discovery cap
// into the backend when the backend's own is unset.
func (w *workload) parOptions() parallel.Options {
	return parallel.Options{LoadBalance: true, WorkSteal: true, MaxTableRows: w.opts.MaxTableRows}
}

func newEngine() *cluster.Engine {
	return cluster.New(cluster.Config{Workers: parWorkers, Mode: cluster.Concurrent})
}

// env is one repetition's inputs: a freshly generated graph and, for
// remote-join, a fresh spill directory, fragment server and connection,
// so per-graph caches start cold in every repetition.
type env struct {
	g     *graph.Graph
	view  graph.View          // what the miner reads: g or the attached snapshot
	frags []parallel.Fragment // remote-join's worker views

	dir    string
	att    *parallel.Attached
	srvMap *store.MappedGraph
	srv    *remote.Server
	served chan error
	rf     *remote.RemoteFragment
}

// setup builds a repetition's inputs under dir (used by remote-join
// only). rec, when non-nil, records one span per set-up layer.
func (w *workload) setup(seed int64, dir string, rec *recorder) (e *env, err error) {
	e = &env{}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	sp := rec.start("graph.gen", -1)
	e.g = w.graph(seed)
	rec.end(sp)
	e.view = e.g
	if w.kind != remoteDis {
		return e, nil
	}

	e.dir = dir
	sp = rec.start("store.spill", -1)
	err = parallel.Spill(dir, e.g, parallel.VertexCut(e.g, parWorkers))
	rec.end(sp)
	if err != nil {
		return e, err
	}
	sp = rec.start("store.attach", -1)
	e.att, err = parallel.Attach(dir)
	rec.end(sp)
	if err != nil {
		return e, err
	}
	sp = rec.start("remote.dial", -1)
	err = e.serveAndDial(filepath.Join(dir, parallel.FragmentSnapshotName(1)))
	rec.end(sp)
	if err != nil {
		return e, err
	}
	e.view = e.att.Graph
	e.frags = []parallel.Fragment{e.att.Frags[0], e.att.Frags[1]}
	e.frags[1].Sub = e.rf
	return e, nil
}

// serveAndDial starts an in-process server for worker 1's fragment on a
// loopback port and dials it once.
func (e *env) serveAndDial(fragPath string) error {
	m, err := store.Open(fragPath)
	if err != nil {
		return err
	}
	e.srvMap = m
	e.srv, err = remote.NewServer(m, remote.ServerOptions{})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(l) }()
	e.rf, err = remote.Dial(context.Background(), l.Addr().String(), e.att.Graph, remote.Options{FallbackPath: fragPath})
	return err
}

// close releases everything setup acquired and waits for the server's
// goroutine to exit.
func (e *env) close() error {
	var errs []error
	if e.rf != nil {
		errs = append(errs, e.rf.Close())
	}
	if e.srv != nil {
		errs = append(errs, e.srv.Close())
		if e.served != nil {
			errs = append(errs, <-e.served)
		}
	}
	if e.srvMap != nil {
		errs = append(errs, e.srvMap.Close())
	}
	if e.att != nil {
		errs = append(errs, e.att.Close())
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// outcome is what one discovery returned. The traced path also keeps
// the backend's table counter and the parallel engines' statistics.
type outcome struct {
	res              *discovery.Result
	cover            []*core.GFD
	tableRows        int
	mine, coverStats cluster.Stats
}

// discover runs one untraced discovery through the workload's public
// entry points and returns the wall time from the entry call to the
// returned cover.
func (w *workload) discover(e *env) (*outcome, time.Duration) {
	var eng, ceng *cluster.Engine
	if w.kind != seqDis {
		eng, ceng = newEngine(), newEngine()
	}
	t0 := time.Now()
	var res *discovery.Result
	switch w.kind {
	case seqDis:
		res = discovery.MineView(e.view, w.opts)
	case parDis:
		res = parallel.Mine(context.Background(), e.view, w.opts, eng, w.parOptions()).Result
	case remoteDis:
		res = parallel.MineFragments(context.Background(), e.view, e.frags, w.opts, eng, w.parOptions()).Result
	}
	cover := w.cover(res, ceng)
	return &outcome{res: res, cover: cover}, time.Since(t0)
}

// cover applies the workload's cover algorithm to a mined result:
// SeqCover for the sequential workloads, ParCover with grouping on eng
// for the parallel ones.
func (w *workload) cover(res *discovery.Result, eng *cluster.Engine) []*core.GFD {
	if w.kind == seqDis {
		return discovery.Cover(res.All())
	}
	return parallel.Cover(res.All(), res.Tree, eng, parallel.CoverOptions{Grouping: true}).Cover
}

// discoverTraced runs the same discovery with the miner driven through
// traced Backend/Evaluator wrappers: the profile, backend construction,
// mining and cover calls become spans under one "discover" root.
func (w *workload) discoverTraced(e *env, rec *recorder) (*outcome, time.Duration) {
	var eng, ceng *cluster.Engine
	if w.kind != seqDis {
		eng, ceng = newEngine(), newEngine()
	}
	root := rec.start("discover", -1)
	sp := rec.start("discovery.profile", -1)
	prof := discovery.NewProfile(e.view, w.opts.ActiveAttrs)
	rec.end(sp)

	var st discovery.Stats
	var b discovery.Backend
	switch w.kind {
	case seqDis:
		sp = rec.start("backend.init", -1)
		b = discovery.NewSeqBackend(e.view, w.opts.MaxTableRows, &st)
		rec.end(sp)
	case parDis:
		sp = rec.start("parallel.partition", -1)
		frags := parallel.VertexCut(e.view, parWorkers)
		rec.end(sp)
		sp = rec.start("backend.init", -1)
		b = parallel.NewBackendWithFragments(e.view, eng, frags, w.parOptions(), &st)
		rec.end(sp)
	case remoteDis:
		sp = rec.start("backend.init", -1)
		b = parallel.NewBackendWithFragments(e.view, eng, e.frags, w.parOptions(), &st)
		rec.end(sp)
	}

	sp = rec.start("discovery.mine", -1)
	res := discovery.MineWithBackend(rec.wrap(b), prof, w.opts)
	rec.finishMine()
	rec.end(sp)

	out := &outcome{res: res, tableRows: st.TotalTableRows}
	sp = rec.start("discovery.cover", -1)
	out.cover = w.cover(res, ceng)
	rec.end(sp)
	rec.end(root)
	if w.kind != seqDis {
		out.mine, out.coverStats = eng.Stats(), ceng.Stats()
	}
	return out, rec.duration(root)
}

// reference mines a freshly generated graph with SeqDis, covers the
// result with the workload's cover algorithm, and returns the canonical
// form every timed repetition must reproduce.
func (w *workload) reference(seed int64) string {
	res := discovery.MineView(w.graph(seed), w.opts)
	return canonicalSigma(res, w.cover(res, newEngine()))
}

// canonicalSigma renders a mined Σ as sorted lines of canonical key,
// support and level, one per GFD (the golden tests' canonical form),
// followed by the cover's sorted keys.
func canonicalSigma(res *discovery.Result, cover []*core.GFD) string {
	var lines []string
	for _, m := range res.Positives {
		lines = append(lines, fmt.Sprintf("P\t%s\tsupp=%d\tlevel=%d", m.GFD.Key(), m.Support, m.Level))
	}
	for _, m := range res.Negatives {
		lines = append(lines, fmt.Sprintf("N\t%s\tsupp=%d\tlevel=%d", m.GFD.Key(), m.Support, m.Level))
	}
	sort.Strings(lines)
	keys := make([]string, len(cover))
	for i, g := range cover {
		keys[i] = "C\t" + g.Key()
	}
	sort.Strings(keys)
	return strings.Join(lines, "\n") + "\n" + strings.Join(keys, "\n") + "\n"
}
