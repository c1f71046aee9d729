package remote

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parallel"
	"repro/internal/pattern"
	"repro/internal/store"
)

// testBackoff keeps retry tests fast: tight delays, few attempts.
func testBackoff() Backoff {
	return Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 4}
}

// spillGraph writes g's n-way vertex cut to a temp dir and returns it.
func spillGraph(t *testing.T, g *graph.Graph, n int) string {
	t.Helper()
	dir := t.TempDir()
	if err := parallel.Spill(dir, g, parallel.VertexCut(g, n)); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	return dir
}

// startServer serves one spilled fragment on loopback TCP and returns its
// address plus the server handle (already scheduled for cleanup).
func startServer(t *testing.T, fragPath string, opts ServerOptions) (string, *Server) {
	t.Helper()
	m, err := store.Open(fragPath)
	if err != nil {
		t.Fatalf("open fragment: %v", err)
	}
	s, err := NewServer(m, opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(l)
	t.Cleanup(func() {
		s.Close()
		m.Close()
	})
	return l.Addr().String(), s
}

// testChildren builds a spread of parent tables and child patterns over
// g: concrete and wildcard edge labels, outgoing and incoming new-node
// extensions, and a closing edge.
func testChildren(g *graph.Graph) []struct {
	parent *pattern.Pattern
	child  *pattern.Pattern
} {
	el := ""
	for l := 0; l < g.NumLabels(); l++ {
		if g.EdgeLabelCount(graph.LabelID(l)) > 0 {
			el = g.LabelName(graph.LabelID(l))
			break
		}
	}
	w := pattern.Wildcard
	p1 := pattern.SingleEdge(w, el, w)
	p2 := pattern.SingleEdge(w, w, w)
	return []struct {
		parent *pattern.Pattern
		child  *pattern.Pattern
	}{
		{p1, p1.ExtendNewNode(1, el, w, true)},
		{p1, p1.ExtendNewNode(0, w, w, false)},
		{p2, p2.ExtendNewNode(1, el, w, true)},
		{p1, p1.ExtendClosingEdge(1, 0, w)},
		{p2, p2.ExtendClosingEdge(1, 0, el)},
	}
}

func dialTest(t *testing.T, addr string, base graph.View, opts Options) *RemoteFragment {
	t.Helper()
	if opts.Backoff.Attempts == 0 {
		opts.Backoff = testBackoff()
	}
	if opts.CallTimeout == 0 {
		opts.CallTimeout = 2 * time.Second
	}
	rf, err := Dial(context.Background(), addr, base, opts)
	if err != nil {
		t.Fatalf("Dial %s: %v", addr, err)
	}
	t.Cleanup(func() { rf.Close() })
	return rf
}

func sameExt(a, b match.IndexedExt) bool {
	if len(a.ParentRows) != len(b.ParentRows) || (a.NewCol == nil) != (b.NewCol == nil) {
		return false
	}
	for i := range a.ParentRows {
		if a.ParentRows[i] != b.ParentRows[i] {
			return false
		}
	}
	for i := range a.NewCol {
		if a.NewCol[i] != b.NewCol[i] {
			return false
		}
	}
	return true
}

// TestRemoteExtendMatchesLocal: the wire round-trip of the indexed join
// must reproduce the local computation bit for bit, for every child
// shape, and the handshake must carry the fragment's true identity.
func TestRemoteExtendMatchesLocal(t *testing.T) {
	g := dataset.DBpediaSim(200, 42)
	dir := spillGraph(t, g, 3)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	addr, _ := startServer(t, fragPath, ServerOptions{})

	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	rf := dialTest(t, addr, g, Options{})
	fi, _ := local.Fragment()
	if rf.Info() != fi {
		t.Fatalf("handshake fragment info %+v, want %+v", rf.Info(), fi)
	}
	if rf.NumEdges() != local.NumEdges() {
		t.Fatalf("NumEdges %d, want %d", rf.NumEdges(), local.NumEdges())
	}
	for l := 0; l <= g.NumLabels(); l++ {
		id := graph.LabelID(l)
		if l == g.NumLabels() {
			id = graph.NoLabel
		}
		if rf.EdgeLabelCount(id) != local.EdgeLabelCount(id) {
			t.Fatalf("EdgeLabelCount(%d) = %d, want %d", id, rf.EdgeLabelCount(id), local.EdgeLabelCount(id))
		}
	}

	for i, tc := range testChildren(g) {
		base := match.EdgeMatches(g, tc.parent, nil)
		want := match.ExtendIndexed(local, base, tc.child)
		got := rf.ExtendIndexed(base, tc.child)
		if !sameExt(want, got) {
			t.Fatalf("case %d: remote share diverged: got %d rows, want %d", i, len(got.ParentRows), len(want.ParentRows))
		}
	}
	if rf.TakeTransferred() == 0 {
		t.Fatal("no wire bytes accounted")
	}
	if rf.TakeTransferred() != 0 {
		t.Fatal("TakeTransferred did not drain")
	}
	if rf.FailedOver() {
		t.Fatal("healthy run reported failover")
	}
}

// TestRemoteMergeByteIdentical: ExtendRowsViews over a mix of remote and
// local fragment views must equal the all-local table row for row — the
// distributed join is invisible to the miner.
func TestRemoteMergeByteIdentical(t *testing.T) {
	g := dataset.YAGO2Sim(150, 9)
	dir := spillGraph(t, g, 3)
	att, err := parallel.Attach(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Close()

	addr, _ := startServer(t, filepath.Join(dir, parallel.FragmentSnapshotName(1)), ServerOptions{})
	rf := dialTest(t, addr, att.Graph, Options{})

	localViews := []graph.View{att.Frags[0].Sub, att.Frags[1].Sub, att.Frags[2].Sub}
	mixed := []graph.View{att.Frags[0].Sub, rf, att.Frags[2].Sub}

	for i, tc := range testChildren(g) {
		base := match.EdgeMatches(att.Graph, tc.parent, nil)
		want := match.ExtendRowsViews(localViews, base, tc.child)
		got := match.ExtendRowsViews(mixed, base, tc.child)
		if want.Len() != got.Len() || want.NumVars() != got.NumVars() {
			t.Fatalf("case %d: table shape diverged: got %dx%d want %dx%d", i, got.Len(), got.NumVars(), want.Len(), want.NumVars())
		}
		for r := 0; r < want.Len(); r++ {
			for v := 0; v < want.NumVars(); v++ {
				if want.At(r, v) != got.At(r, v) {
					t.Fatalf("case %d: cell (%d,%d) diverged", i, r, v)
				}
			}
		}
	}
}

// TestRemotePerEdgeSurface: per-edge View methods are answered from one
// bulk section fetch, never per-edge RPCs, and agree with the local
// mapping of the same fragment.
func TestRemotePerEdgeSurface(t *testing.T) {
	g := dataset.DBpediaSim(120, 5)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	addr, srv := startServer(t, fragPath, ServerOptions{})
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	rf := dialTest(t, addr, g, Options{})
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		llo, lhi := local.OutRuns(id)
		rlo, rhi := rf.OutRuns(id)
		if llo != rlo || lhi != rhi {
			t.Fatalf("OutRuns(%d) = (%d,%d), want (%d,%d)", v, rlo, rhi, llo, lhi)
		}
		for r := llo; r < lhi; r++ {
			if local.OutRunLabel(r) != rf.OutRunLabel(r) {
				t.Fatalf("OutRunLabel(%d) diverged", r)
			}
			ln, rn := local.OutRunNodes(r), rf.OutRunNodes(r)
			if len(ln) != len(rn) {
				t.Fatalf("OutRunNodes(%d) length diverged", r)
			}
			for i := range ln {
				if ln[i] != rn[i] {
					t.Fatalf("OutRunNodes(%d)[%d] diverged", r, i)
				}
			}
		}
	}
	served := srv.Served()
	// The whole per-edge walk must have cost a constant number of frames
	// (hello + one sections fetch), not one per lookup.
	if served > 4 {
		t.Fatalf("per-edge surface cost %d frames; the replica is not being used", served)
	}
}

// TestDialRejectsWrongGraph: a fragment of a different graph must be
// refused at handshake (content fingerprint), even when all counts would
// pass a size check.
func TestDialRejectsWrongGraph(t *testing.T) {
	g := dataset.DBpediaSim(100, 1)
	other := dataset.DBpediaSim(100, 2)
	dir := spillGraph(t, other, 2)
	addr, _ := startServer(t, filepath.Join(dir, parallel.FragmentSnapshotName(0)), ServerOptions{})

	_, err := Dial(context.Background(), addr, g, Options{Backoff: testBackoff(), CallTimeout: time.Second})
	if err == nil || !strings.Contains(err.Error(), "disagrees") && !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("dial against wrong graph: err = %v, want node-store mismatch", err)
	}
}

// TestFaultInjectionStillCorrect: under dropped, corrupted and forcibly
// closed frames the client's deadline/retry/redial machinery must still
// produce the exact local share — faults cost time, never correctness.
func TestFaultInjectionStillCorrect(t *testing.T) {
	g := dataset.DBpediaSim(150, 8)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	specs := []FaultSpec{
		{Drop: 0.25, Seed: 7},
		{Corrupt: 0.4, Seed: 3},
		{CloseAfter: 3, Seed: 1},
		{Drop: 0.15, Corrupt: 0.15, CloseAfter: 5, Seed: 11},
	}
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			addr, _ := startServer(t, fragPath, ServerOptions{Fault: spec})
			rf := dialTest(t, addr, g, Options{
				CallTimeout: 150 * time.Millisecond,
				Backoff:     Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 12},
			})
			for i, tc := range testChildren(g) {
				base := match.EdgeMatches(g, tc.parent, nil)
				want := match.ExtendIndexed(local, base, tc.child)
				got := rf.ExtendIndexed(base, tc.child)
				if !sameExt(want, got) {
					t.Fatalf("case %d under %s: share diverged", i, spec)
				}
			}
			if rf.FailedOver() {
				t.Fatalf("faults under %s escalated to failover; retries should have absorbed them", spec)
			}
		})
	}
}

// TestFailoverToSpillFile: a server killed mid-run must be survived by
// re-attaching the worker's spill file; the share comes back identical
// and the fragment reports the failover.
func TestFailoverToSpillFile(t *testing.T) {
	g := dataset.YAGO2Sim(120, 4)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	addr, srv := startServer(t, fragPath, ServerOptions{})
	rf := dialTest(t, addr, g, Options{
		CallTimeout:  100 * time.Millisecond,
		FallbackPath: fragPath,
	})

	cases := testChildren(g)
	base0 := match.EdgeMatches(g, cases[0].parent, nil)
	if !sameExt(match.ExtendIndexed(local, base0, cases[0].child), rf.ExtendIndexed(base0, cases[0].child)) {
		t.Fatal("pre-kill share diverged")
	}
	if rf.Healthy(context.Background()) != nil {
		t.Fatal("healthy server reported unhealthy")
	}

	srv.Close() // the worker dies mid-mine

	for i, tc := range cases {
		base := match.EdgeMatches(g, tc.parent, nil)
		want := match.ExtendIndexed(local, base, tc.child)
		got := rf.ExtendIndexed(base, tc.child)
		if !sameExt(want, got) {
			t.Fatalf("case %d after kill: share diverged", i)
		}
	}
	if !rf.FailedOver() {
		t.Fatal("dead server did not trigger failover")
	}
	if err := rf.Healthy(context.Background()); err == nil {
		t.Fatal("dead server reported healthy")
	}
	// Per-edge surface keeps working from the re-attached mapping.
	if rf.NumEdges() != local.NumEdges() {
		t.Fatal("NumEdges diverged after failover")
	}
	lo, hi := local.OutRuns(1)
	rlo, rhi := rf.OutRuns(1)
	if lo != rlo || hi != rhi {
		t.Fatal("OutRuns diverged after failover")
	}
}

// TestDeadlineOnStalledServer: a server that accepts but never answers
// must cost CallTimeout per attempt, not a hang; with a fallback the
// call degrades to local.
func TestDeadlineOnStalledServer(t *testing.T) {
	g := dataset.DBpediaSim(80, 3)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	// A black hole: accepts connections, reads forever, never writes.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	start := time.Now()
	_, err = Dial(context.Background(), l.Addr().String(), g, Options{
		CallTimeout: 50 * time.Millisecond,
		Backoff:     Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Factor: 2, Jitter: 0, Attempts: 2},
	})
	if err == nil {
		t.Fatal("dial against a stalled server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled dial took %s; deadlines are not being applied", elapsed)
	}
	_ = local
}

// TestFailoverWithoutFallbackPanics: with no recovery unit configured the
// run must stop loudly — wrong mining output is not an acceptable
// degradation.
func TestFailoverWithoutFallbackPanics(t *testing.T) {
	g := dataset.DBpediaSim(80, 6)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	addr, srv := startServer(t, fragPath, ServerOptions{})
	rf := dialTest(t, addr, g, Options{CallTimeout: 50 * time.Millisecond})
	srv.Close()

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("dead server without fallback did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "FallbackPath") {
			t.Fatalf("panic does not explain the remedy: %v", r)
		}
	}()
	tc := testChildren(g)[0]
	rf.ExtendIndexed(match.EdgeMatches(g, tc.parent, nil), tc.child)
}

// TestServerDieAfter: the deterministic mid-run death used by the
// process-level golden tests — the server drops dead after N frames and
// the client fails over.
func TestServerDieAfter(t *testing.T) {
	g := dataset.YAGO2Sim(100, 2)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	addr, _ := startServer(t, fragPath, ServerOptions{DieAfter: 3})
	rf := dialTest(t, addr, g, Options{CallTimeout: 100 * time.Millisecond, FallbackPath: fragPath})

	cases := testChildren(g)
	for round := 0; round < 3; round++ {
		for i, tc := range cases {
			base := match.EdgeMatches(g, tc.parent, nil)
			want := match.ExtendIndexed(local, base, tc.child)
			got := rf.ExtendIndexed(base, tc.child)
			if !sameExt(want, got) {
				t.Fatalf("round %d case %d: share diverged across server death", round, i)
			}
		}
	}
	if !rf.FailedOver() {
		t.Fatal("DieAfter server did not trigger failover")
	}
}

// TestConcurrentExtends: concurrent supersteps share one fragment client
// and pipeline over its multiplexed connection; out-of-order completions
// must stay correct under the race detector.
func TestConcurrentExtends(t *testing.T) {
	g := dataset.DBpediaSim(120, 9)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	addr, _ := startServer(t, fragPath, ServerOptions{})
	rf := dialTest(t, addr, g, Options{})

	cases := testChildren(g)
	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, tc := range cases {
				base := match.EdgeMatches(g, tc.parent, nil)
				want := match.ExtendIndexed(local, base, tc.child)
				got := rf.ExtendIndexed(base, tc.child)
				if !sameExt(want, got) {
					errs <- fmt.Errorf("case %d diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestParseFaultSpec locks the CLI syntax.
func TestParseFaultSpec(t *testing.T) {
	f, err := ParseFaultSpec("drop=0.05,corrupt=0.01,delay=2ms,closeafter=20,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSpec{Drop: 0.05, Corrupt: 0.01, Delay: 2 * time.Millisecond, CloseAfter: 20, Seed: 9}
	if f != want {
		t.Fatalf("parsed %+v, want %+v", f, want)
	}
	if _, err := ParseFaultSpec("drop=2"); err == nil {
		t.Fatal("out-of-range probability accepted")
	}
	if _, err := ParseFaultSpec("bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if f, err := ParseFaultSpec(""); err != nil || f.Active() {
		t.Fatalf("empty spec: (%+v, %v)", f, err)
	}
}

// TestDecodeExtendShapes: extend frames whose child is not the parent
// plus one edge are refused at decode, and the server answers them with
// msgError instead of running the join kernel on a shape it assumes away.
func TestDecodeExtendShapes(t *testing.T) {
	g := dataset.DBpediaSim(100, 42)
	dir := spillGraph(t, g, 2)
	m, err := store.Open(filepath.Join(dir, parallel.FragmentSnapshotName(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := NewServer(m, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	edge := func(src, dst int) pattern.Edge { return pattern.Edge{Src: src, Dst: dst, Label: pattern.Wildcard} }
	frame := func(n, nv int, edges ...pattern.Edge) []byte {
		labels := make([]string, n)
		for i := range labels {
			labels[i] = pattern.Wildcard
		}
		child := &pattern.Pattern{NodeLabels: labels, Edges: edges}
		cols := make([][]graph.NodeID, nv)
		for v := range cols {
			cols[v] = []graph.NodeID{graph.NodeID(v), graph.NodeID(v + 1)}
		}
		parent := &pattern.Pattern{NodeLabels: labels[:nv], Edges: edges[:len(edges)-1]}
		tb, err := match.FromCols(parent, cols)
		if err != nil {
			t.Fatal(err)
		}
		return encodeExtend(tb, child)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		ok      bool
	}{
		{"new variable, outgoing", frame(2, 1, edge(0, 1)), true},
		{"new variable, incoming", frame(2, 1, edge(1, 0)), true},
		{"closing edge", frame(2, 2, edge(0, 1), edge(1, 0)), true},
		{"no bound variables", frame(1, 0, edge(0, 0)), false},
		{"new-variable self loop", frame(2, 1, edge(1, 1)), false},
		{"new variable not on the last edge", frame(2, 1, edge(0, 0)), false},
	} {
		_, _, err := decodeExtend(tc.payload)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: decode err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		typ, _ := s.dispatch(msgExtend, tc.payload)
		if want := map[bool]uint32{true: msgExtendOK, false: msgError}[tc.ok]; typ != want {
			t.Fatalf("%s: server answered type %d, want %d", tc.name, typ, want)
		}
	}
}
