package gfd

// Golden mining test: runs full discovery on a small checked-in TSV graph
// and compares the canonicalized GFD output byte-for-byte against a
// committed golden file. Layout rewrites of the match/discovery stack
// (e.g. the columnar table storage) must leave mining output identical;
// regenerate deliberately with `go test -run TestGoldenMining -update .`.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

const (
	goldenGraphPath = "internal/testutil/testdata/golden_graph.tsv"
	goldenGFDsPath  = "internal/testutil/testdata/golden_gfds.txt"
)

// goldenOptions is the fixed discovery configuration of the golden run.
// Changing it invalidates the golden file on purpose.
func goldenOptions() DiscoverOptions {
	return DiscoverOptions{
		K:                3,
		Support:          2,
		MaxX:             2,
		ConstantsPerAttr: 3,
		WildcardNodes:    true,
		MaxNegatives:     200,
	}
}

// canonicalize renders a discovery result as sorted, self-contained lines:
// one per mined GFD, carrying its canonical key, support and level.
func canonicalize(res *DiscoverResult) string {
	var lines []string
	for _, m := range res.Positives {
		lines = append(lines, fmt.Sprintf("P\t%s\tsupp=%d\tlevel=%d", m.GFD.Key(), m.Support, m.Level))
	}
	for _, m := range res.Negatives {
		lines = append(lines, fmt.Sprintf("N\t%s\tsupp=%d\tlevel=%d", m.GFD.Key(), m.Support, m.Level))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func loadGoldenGraph(t *testing.T) *Graph {
	t.Helper()
	f, err := os.Open(goldenGraphPath)
	if err != nil {
		t.Fatalf("open golden graph: %v", err)
	}
	defer f.Close()
	g, err := ReadGraph(f)
	if err != nil {
		t.Fatalf("read golden graph: %v", err)
	}
	return g
}

func TestGoldenMining(t *testing.T) {
	g := loadGoldenGraph(t)
	res := Discover(g, goldenOptions())
	if len(res.Positives) == 0 || len(res.Negatives) == 0 {
		t.Fatalf("golden run looks degenerate: %d positives, %d negatives",
			len(res.Positives), len(res.Negatives))
	}
	got := canonicalize(res)

	if *updateGolden {
		if err := os.WriteFile(goldenGFDsPath, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		t.Logf("golden file rewritten: %d GFDs", len(res.Positives)+len(res.Negatives))
		return
	}
	want, err := os.ReadFile(goldenGFDsPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("mining output diverged from golden file.\n"+
			"If the change is intentional, regenerate with: go test -run TestGoldenMining -update .\n"+
			"--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenMiningSnapshot locks the persistent path to the same bytes:
// serialising the golden graph to a binary snapshot, reopening it as a
// zero-copy mmap-backed view and mining straight off the mapped bytes
// must produce output byte-identical to the in-memory sequential run.
func TestGoldenMiningSnapshot(t *testing.T) {
	g := loadGoldenGraph(t)
	want, err := os.ReadFile(goldenGFDsPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	path := filepath.Join(t.TempDir(), "golden.gfds")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(f, g); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("open snapshot: %v", err)
	}
	res := DiscoverView(m, goldenOptions())
	// Canonicalize before Close: rendering copies the literal strings out
	// of the mapping.
	got := canonicalize(res)
	if err := m.Close(); err != nil {
		t.Fatalf("close snapshot: %v", err)
	}
	if got != string(want) {
		t.Fatalf("snapshot-backed mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenMiningParallel locks the distributed path to the same bytes:
// ParDis over fragment-local SubCSR indexes must mine exactly the golden
// GFD set, for several worker counts — including uneven ones, where
// fragments and node-ownership ranges differ in size.
func TestGoldenMiningParallel(t *testing.T) {
	g := loadGoldenGraph(t)
	want, err := os.ReadFile(goldenGFDsPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	for _, workers := range []int{1, 2, 3, 4, 5, 7} {
		res := DiscoverParallel(g, goldenOptions(), workers)
		if got := canonicalize(res.DiscoverResult); got != string(want) {
			t.Fatalf("parallel mining (n=%d) diverged from golden output.\n--- got ---\n%s--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestGoldenMiningSkewed locks parallel mining on the workload the
// work-stealing path was built for: a power-law graph whose hub runs make
// static per-worker chunks unbalanced. The sequential run is the in-test
// reference; every worker count must reproduce it byte-for-byte through
// both the default (Makespan, static-chunk) pipeline and the concurrent
// engine with work stealing enabled. The CI race job runs this under
// -race, checking the steal cursor and chunk-order merge as well.
func TestGoldenMiningSkewed(t *testing.T) {
	g := dataset.Synthetic(dataset.SyntheticConfig{Nodes: 300, Edges: 1500, Seed: 8, Skew: 1.2})
	opts := DiscoverOptions{
		K:                2,
		Support:          5,
		MaxX:             1,
		ConstantsPerAttr: 3,
		WildcardNodes:    true,
		MaxNegatives:     150,
	}
	ref := Discover(g, opts)
	if len(ref.Positives) == 0 || len(ref.Negatives) == 0 {
		t.Fatalf("skewed reference run looks degenerate: %d positives, %d negatives",
			len(ref.Positives), len(ref.Negatives))
	}
	want := canonicalize(ref)

	for _, workers := range []int{1, 2, 3, 4, 5, 7} {
		res := DiscoverParallel(g, opts, workers)
		if got := canonicalize(res.DiscoverResult); got != want {
			t.Fatalf("parallel mining (n=%d) diverged from sequential on skewed graph.\n--- got ---\n%s--- want ---\n%s",
				workers, got, want)
		}
		eng := cluster.New(cluster.Config{Workers: workers, Mode: cluster.Concurrent})
		stolen := parallel.Mine(context.Background(), g, opts, eng,
			parallel.Options{LoadBalance: true, WorkSteal: true})
		if got := canonicalize(stolen.Result); got != want {
			t.Fatalf("work-stealing mining (n=%d) diverged from sequential on skewed graph.\n--- got ---\n%s--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestGoldenFunnelCounters checks the candidate funnel on the golden
// graphs: the four prune reasons partition CandidatesPruned, so every
// pruned candidate is attributed to exactly one of them.
func TestGoldenFunnelCounters(t *testing.T) {
	skewed := dataset.Synthetic(dataset.SyntheticConfig{Nodes: 300, Edges: 1500, Seed: 8, Skew: 1.2})
	skewedOpts := DiscoverOptions{K: 2, Support: 5, MaxX: 1, ConstantsPerAttr: 3, WildcardNodes: true, MaxNegatives: 150}
	for _, run := range []struct {
		name string
		g    *Graph
		opts DiscoverOptions
	}{
		{"golden", loadGoldenGraph(t), goldenOptions()},
		{"skewed", skewed, skewedOpts},
	} {
		st := Discover(run.g, run.opts).Stats
		sum := st.PrunedTrivial + st.PrunedSubsumed + st.PrunedInfrequent + st.PrunedReduced
		if st.CandidatesPruned == 0 || sum != st.CandidatesPruned {
			t.Errorf("%s: prune reasons %d+%d+%d+%d = %d, CandidatesPruned = %d", run.name,
				st.PrunedTrivial, st.PrunedSubsumed, st.PrunedInfrequent, st.PrunedReduced, sum, st.CandidatesPruned)
		}
		if st.CandidatesSpawned != st.CandidatesChecked+st.PrunedTrivial+st.PrunedSubsumed {
			t.Errorf("%s: spawned %d ≠ checked %d + trivial %d + subsumed %d", run.name,
				st.CandidatesSpawned, st.CandidatesChecked, st.PrunedTrivial, st.PrunedSubsumed)
		}
	}
}
