// Command gfddiscover mines graph functional dependencies from a property
// graph: a TSV graph file, a binary snapshot (.gfds, opened zero-copy via
// mmap — the format is auto-detected by magic bytes), or one of the
// built-in dataset generators. It prints the discovered cover with
// supports, sequentially or on the simulated cluster. With -fragdir the
// parallel run persists every fragment as a snapshot and the workers
// re-attach and join against the mmap-backed fragment views.
//
// Examples:
//
//	gfddiscover -dataset yago2 -scale 500 -k 3 -sigma 25
//	gfddiscover -in graph.tsv -k 3 -sigma 100 -workers 8
//	gfddiscover -in graph.gfds -k 3 -sigma 100
//	gfddiscover -in graph.gfds -workers 4 -fragdir /tmp/frags
//
// With -serve the parallel run becomes distributed: every worker except
// worker 0 is an in-process fragment server that announces itself to a
// loopback registry and is dialed over loopback TCP — the -cluster run
// path with its members started in-process. -fault injects deterministic
// transport faults, and -die-after/-restart-after kill the servers
// mid-mine and bring them back; the mining output must stay identical,
// absorbed by the deadline/retry/failover machinery and the rejoin at a
// superstep boundary.
//
//	gfddiscover -in graph.gfds -workers 4 -fragdir /tmp/frags -serve
//	gfddiscover -in graph.gfds -workers 4 -fragdir /tmp/frags -serve -fault drop=0.05,seed=1
//	gfddiscover -in graph.gfds -workers 3 -fragdir /tmp/frags -serve -die-after 40 -restart-after 200ms
//
// With -cluster the coordinator serves a membership registry instead of
// being handed addresses: external gfdfrag -announce servers register
// themselves, get health-checked (healthy → suspect → dead), and worker
// slots route to whoever legitimately holds their fragment — adopted at
// superstep boundaries when members join or are replaced mid-run, failed
// over to the spill file when they die. -hedge-after additionally races
// slow remote join shares against the local spill replica.
//
//	gfddiscover -in graph.gfds -workers 3 -fragdir /tmp/frags -cluster 127.0.0.1:7700
//	gfddiscover -in graph.gfds -workers 3 -fragdir /tmp/frags -cluster :7700 -hedge-after 50ms -health-interval 200ms
//
// Observability: -trace writes a structured JSONL span log of the run
// (levels, supersteps, shares, hedge races, failovers — summarize with
// gfdbench -trace-report), and -debug-addr serves /metrics (Prometheus
// text), /cluster (membership + RTT quantiles, cluster runs) and
// /debug/pprof live while the run executes. Neither changes the mined
// output.
//
//	gfddiscover -in graph.gfds -workers 4 -trace run.jsonl -debug-addr 127.0.0.1:6060
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	gfdlib "repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/remote"
)

func main() { os.Exit(run()) }

// run is the real main: it returns the exit status instead of calling
// os.Exit so deferred cleanup — notably flushing the pprof profiles —
// always runs.
func run() int {
	in := flag.String("in", "", "input graph, TSV or snapshot (.gfds), auto-detected (overrides -dataset)")
	ds := flag.String("dataset", "yago2", "built-in dataset: yago2 | dbpedia | imdb | synthetic")
	scale := flag.Int("scale", 500, "dataset generator scale")
	seed := flag.Int64("seed", 42, "generator seed")
	k := flag.Int("k", 3, "pattern variable bound k")
	sigma := flag.Int("sigma", 25, "support threshold σ")
	maxX := flag.Int("maxx", 1, "max LHS literals on positive GFDs")
	workers := flag.Int("workers", 0, "simulated cluster workers (0 = sequential)")
	fragDir := flag.String("fragdir", "", "spill fragments as snapshots to this dir and mine over the mmap-backed views (needs -workers)")
	serve := flag.Bool("serve", false, "serve workers 1..n-1 as remote fragment servers over loopback TCP (needs -fragdir)")
	faultSpec := flag.String("fault", "", "with -serve: inject transport faults, e.g. drop=0.05,corrupt=0.01,seed=1")
	clusterAddr := flag.String("cluster", "", "serve a membership registry on this address and mine against announced gfdfrag servers (needs -fragdir, -workers >= 2)")
	clusterWait := flag.Duration("cluster-wait", 30*time.Second, "with -cluster: how long to wait for workers 1..n-1 to announce before mining starts")
	hedgeAfter := flag.Duration("hedge-after", 0, "with -cluster: race remote join shares outstanding past this delay against the local spill replica")
	healthInterval := flag.Duration("health-interval", time.Second, "with -cluster: heartbeat cadence of the member health monitor")
	dieAfter := flag.Int("die-after", 0, "with -serve: kill every in-process fragment server after serving this many frames (forces failover)")
	restartAfter := flag.Duration("restart-after", 0, "with -serve and -die-after: resurrect dead servers on their original address after this delay; they re-announce and rejoin at the next superstep boundary")
	negatives := flag.Int("negatives", 50, "max negative GFDs to mine (-1 disables)")
	showAll := flag.Bool("all", false, "print the full mined set, not just the cover")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	tracePath := flag.String("trace", "", "write a structured span trace of the run to this JSONL file (summarize with gfdbench -trace-report)")
	debugAddr := flag.String("debug-addr", "", "serve live introspection (/metrics, /cluster, /debug/pprof) on this address for the run")
	flag.Parse()

	prof, err := gfdlib.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
		return 1
	}
	defer prof.Stop()

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer, err = obs.StartTrace(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
			return 1
		}
		defer tracer.Close()
	}

	g, err := gfdlib.LoadOrGenerate(*in, *ds, *scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
		return 1
	}
	fmt.Printf("graph: %v\n", g)

	opts := gfdlib.DiscoverOptions(*k, *sigma)
	opts.MaxX = *maxX
	opts.MaxNegatives = *negatives
	opts.Trace = tracer

	// The cluster path owns the debug endpoint itself (it serves /cluster
	// from the live registry); every other path gets metrics and pprof.
	if *debugAddr != "" && *clusterAddr == "" {
		ds, err := obs.ServeDebug(*debugAddr, obs.Default, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfddiscover: debug listen %s: %v\n", *debugAddr, err)
			return 1
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "gfddiscover: debug endpoint on http://%s\n", ds.Addr())
	}

	start := time.Now()
	var report *gfdlib.Report
	if *clusterAddr != "" {
		if *fragDir == "" || *workers < 2 {
			fmt.Fprintln(os.Stderr, "gfddiscover: -cluster requires -fragdir and -workers >= 2")
			return 2
		}
		crt := gfdlib.ClusterRuntime{
			Addr:           *clusterAddr,
			WaitTimeout:    *clusterWait,
			HedgeAfter:     *hedgeAfter,
			HealthInterval: *healthInterval,
			DebugAddr:      *debugAddr,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "gfddiscover: "+format+"\n", args...)
			},
		}
		report, err = gfdlib.DiscoverCluster(g, opts, *workers, *fragDir, crt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
			return 1
		}
		fmt.Printf("cluster run: %d/%d members at epoch %d, %d adoptions (%d wire bytes measured)\n",
			report.Members, *workers-1, report.Epoch, report.Adoptions, report.MeasuredBytes)
	} else if *serve {
		if *fragDir == "" || *workers < 2 {
			fmt.Fprintln(os.Stderr, "gfddiscover: -serve requires -fragdir and -workers >= 2")
			return 2
		}
		fault, err := remote.ParseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
			return 2
		}
		rt := gfdlib.RemoteRuntime{
			Fault:        fault,
			DieAfter:     *dieAfter,
			RestartAfter: *restartAfter,
		}
		report, err = gfdlib.DiscoverRemote(g, opts, *workers, *fragDir, rt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
			return 1
		}
		fmt.Printf("distributed run: worker 0 local, workers 1..%d remote (%d wire bytes measured)\n",
			*workers-1, report.MeasuredBytes)
	} else if *fragDir != "" {
		if *workers < 1 {
			fmt.Fprintln(os.Stderr, "gfddiscover: -fragdir requires -workers >= 1")
			return 2
		}
		report, err = gfdlib.DiscoverSpilled(g, opts, *workers, *fragDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
			return 1
		}
		fmt.Printf("fragments spilled to and re-attached from %s (mmap-backed views)\n", *fragDir)
	} else {
		report = gfdlib.Discover(g, opts, *workers)
	}
	fmt.Printf("mined %d positives, %d negatives in %v (%d patterns, %d candidates)\n",
		report.Positives, report.Negatives, time.Since(start).Round(time.Millisecond),
		report.Patterns, report.Candidates)
	if report.SimulatedTime > 0 {
		fmt.Printf("simulated parallel response time (n=%d): %v\n", *workers, report.SimulatedTime.Round(time.Microsecond))
		fmt.Printf("fragment-local CSR views (edges per worker): %v\n", report.FragmentEdges)
	}
	if report.FailedOver > 0 || report.Rejoined > 0 {
		fmt.Printf("recovery: %d fragments failed over, %d rejoined their server\n",
			report.FailedOver, report.Rejoined)
	}
	if report.StealChunks > 0 || report.HedgesFired > 0 {
		fmt.Printf("work: %d steal chunks, %d hedged reads fired (%d won by the local replica)\n",
			report.StealChunks, report.HedgesFired, report.HedgesWon)
	}
	fmt.Printf("cover: %d GFDs\n\n", len(report.Cover))
	for _, m := range report.Cover {
		fmt.Println(" ", m.Describe())
	}
	if *showAll {
		fmt.Printf("\nfull mined set (%d):\n", len(report.All))
		for _, m := range report.All {
			fmt.Println(" ", m.Describe())
		}
	}
	return 0
}
