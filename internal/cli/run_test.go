package cli

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/discovery"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Golden tests of the two distributed CLI run paths: both must mine the
// committed golden bytes exactly, through whatever their fragment
// servers go through.

const (
	goldenGraphPath = "../testutil/testdata/golden_graph.tsv"
	goldenGFDsPath  = "../testutil/testdata/golden_gfds.txt"
)

func goldenOptions() discovery.Options {
	return discovery.Options{
		K:                3,
		Support:          2,
		MaxX:             2,
		ConstantsPerAttr: 3,
		WildcardNodes:    true,
		MaxNegatives:     200,
	}
}

func loadGolden(t *testing.T) (graph.View, string) {
	t.Helper()
	g, err := LoadOrGenerate(goldenGraphPath, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenGFDsPath)
	if err != nil {
		t.Fatal(err)
	}
	return g, string(want)
}

// canonicalReport renders a report's mined set in the golden file's
// sorted line format.
func canonicalReport(rep *Report) string {
	var lines []string
	for i, m := range rep.All {
		kind := "P"
		if i >= rep.Positives {
			kind = "N"
		}
		lines = append(lines, fmt.Sprintf("%s\t%s\tsupp=%d\tlevel=%d", kind, m.GFD.Key(), m.Support, m.Level))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func TestDiscoverRemoteGolden(t *testing.T) {
	g, want := loadGolden(t)
	rep, err := DiscoverRemote(g, goldenOptions(), 3, t.TempDir(), RemoteRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalReport(rep); got != want {
		t.Fatalf("-serve run diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if rep.MeasuredBytes == 0 || rep.Members != 2 {
		t.Fatalf("in-process servers not used: %d wire bytes, %d members", rep.MeasuredBytes, rep.Members)
	}
}

// TestDiscoverRemoteRestartRejoin: every in-process server dies mid-mine
// and comes back; the fragments fail over to their spill files, the
// restarted servers re-announce, and the balancer adopts them at a
// superstep boundary — golden output throughout. The restart delay must
// outlast the client's retries (below about 110 ms a retry reaches the
// restarted server and nothing fails over) and end well before the run
// does (the golden mine takes about 250 ms on two cores).
func TestDiscoverRemoteRestartRejoin(t *testing.T) {
	g, want := loadGolden(t)
	rep, err := DiscoverRemote(g, goldenOptions(), 3, t.TempDir(),
		RemoteRuntime{DieAfter: 5, RestartAfter: 160 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalReport(rep); got != want {
		t.Fatalf("restart-rejoin run diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if rep.Rejoined < 1 {
		t.Fatalf("no fragment rejoined its restarted server (failed over: %d, adoptions: %d)", rep.FailedOver, rep.Adoptions)
	}
}

// TestDiscoverClusterGolden: fragment servers announce into the
// coordinator's registry; the run is golden and its span log carries
// the remote share spans.
func TestDiscoverClusterGolden(t *testing.T) {
	g, want := loadGolden(t)
	const workers = 3
	dir := t.TempDir()
	att, err := spillAndAttach(g, workers, dir)
	if err != nil {
		t.Fatal(err)
	}
	att.Close()
	// Reserve a registry port for the servers to announce to before the
	// coordinator binds it; announcements retry until it does.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	registry := l.Addr().String()
	l.Close()
	for w := 1; w < workers; w++ {
		fs, err := startFragServer(filepath.Join(dir, parallel.FragmentSnapshotName(w)), registry, RemoteRuntime{})
		if err != nil {
			t.Fatal(err)
		}
		defer fs.stop()
	}

	var trace bytes.Buffer
	tracer := obs.NewTracer(&trace)
	opts := goldenOptions()
	opts.Trace = tracer
	rep, err := DiscoverCluster(g, opts, workers, dir, ClusterRuntime{Addr: registry, WaitTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tracer.Close()
	if got := canonicalReport(rep); got != want {
		t.Fatalf("-cluster run diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if rep.Members != workers-1 {
		t.Fatalf("%d members, want %d", rep.Members, workers-1)
	}
	spans, err := obs.ReadSpans(&trace)
	if err != nil {
		t.Fatal(err)
	}
	shares := 0
	for _, s := range spans {
		if s.Name == "share" {
			shares++
		}
	}
	if shares == 0 {
		t.Fatalf("cluster run's span log has no share spans (%d spans)", len(spans))
	}
}
