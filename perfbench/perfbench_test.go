package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// testSeed renumbers the small graphs of the tests.
const testSeed = 3

// smallWorkloads are graphs shaped like each benchmark workload, small
// enough to mine in a few seconds.
func smallWorkloads() []*workload {
	lattice := latticeOptions()
	lattice.Support = 40
	lattice.MaxPatternsPerLevel = 10
	join := joinOptions()
	join.Support = 10
	smallLattice := func(seed int64) *graph.Graph { return renumbered(dataset.DBpediaSim(200, 42), seed) }
	smallJoin := func(seed int64) *graph.Graph {
		return renumbered(dataset.Synthetic(dataset.SyntheticConfig{Nodes: 800, Edges: 4000, Skew: 1.2, Seed: 8}), seed)
	}
	return []*workload{
		{name: "seq-lattice", kind: seqDis, graph: smallLattice, opts: lattice},
		{name: "seq-join", kind: seqDis, graph: smallJoin, opts: join},
		{name: "pardis-join", kind: parDis, graph: smallJoin, opts: join},
		{name: "remote-join", kind: remoteDis, graph: smallJoin, opts: join},
	}
}

// TestTracedPassThrough checks that the traced Backend/Evaluator wrappers
// return byte-identical Σ and cover to the unwrapped entry points, so
// the traced run measures the same program.
func TestTracedPassThrough(t *testing.T) {
	for _, w := range smallWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			mine := func(traced bool) string {
				var rec *recorder
				if traced {
					rec = newRecorder(1)
				}
				e, err := w.setup(testSeed, filepath.Join(dir, fmt.Sprint(traced)), rec)
				if err != nil {
					t.Fatalf("set up: %v", err)
				}
				defer func() {
					if err := e.close(); err != nil {
						t.Errorf("tear down: %v", err)
					}
				}()
				var out *outcome
				if traced {
					out, _ = w.discoverTraced(e, rec)
				} else {
					out, _ = w.discover(e)
				}
				if len(out.res.Positives) == 0 {
					t.Fatalf("traced=%v mined no positive GFDs; the check would be vacuous", traced)
				}
				return canonicalSigma(out.res, out.cover)
			}
			if plain, traced := mine(false), mine(true); plain != traced {
				t.Fatalf("traced Σ differs from the unwrapped entry point:\nplain:\n%s\ntraced:\n%s", plain, traced)
			}
		})
	}
}

// TestRenumberedKeepsSigma checks that every seed of a workload mines
// the same Σ and cover: renumbering changes node IDs and edge order, not
// the graph, so the seed does not change the amount of work.
func TestRenumberedKeepsSigma(t *testing.T) {
	for _, w := range smallWorkloads()[:2] {
		t.Run(w.name, func(t *testing.T) {
			g := w.graph(testSeed)
			for _, seed := range []int64{testSeed + 1, testSeed + 2} {
				h := w.graph(seed)
				if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
					t.Fatalf("seed %d: %d nodes, %d edges; seed %d: %d nodes, %d edges",
						testSeed, g.NumNodes(), g.NumEdges(), seed, h.NumNodes(), h.NumEdges())
				}
				if got, want := w.reference(seed), w.reference(testSeed); got != want {
					t.Errorf("seed %d mines another Σ than seed %d:\n%s\nwant:\n%s", seed, testSeed, got, want)
				}
			}
		})
	}
}

// TestTracedSelfTimesPartitionDiscovery checks that the layer self
// times of a traced discovery add up to its length, and that the
// per-level miner time adds up to the miner's self time.
func TestTracedSelfTimesPartitionDiscovery(t *testing.T) {
	w := smallWorkloads()[0]
	rec := newRecorder(1)
	e, err := w.setup(testSeed, t.TempDir(), rec)
	if err != nil {
		t.Fatalf("set up: %v", err)
	}
	defer e.close()
	var r rep
	r.rec = rec
	r.out, r.discover = w.discoverTraced(e, rec)
	m := layerMetrics(r)
	if f := m["trace.attributed_frac"]; f < 0.999 || f > 1.0000001 {
		t.Errorf("layer self times cover %.6f of the traced discovery, want 1", f)
	}
	var levels float64
	for level := 0; level <= maxReportedLevel; level++ {
		levels += m[levelName("discovery.level", level, ".self_s")]
	}
	if self := m["discovery.self_s"]; levels > self*1.0001 || levels < self*0.99 {
		t.Errorf("per-level miner time %.6fs, miner self time %.6fs", levels, self)
	}
	if m["eval.query_calls"] == 0 || m["match.extend_s"] == 0 {
		t.Errorf("no evaluator calls or extend time recorded: %v", m)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json declares
// exactly the metrics, units and workloads the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []decl, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
}
