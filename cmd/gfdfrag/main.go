// Command gfdfrag is a ParDis fragment server: it mmaps one spilled
// fragment snapshot (frag-N.gfds, written by a coordinator's Spill) and
// serves that worker's share of the distributed incremental join over
// the remote package's frame protocol. A coordinator (gfddiscover, or
// any remote.Dial client) joins row-table batches against it exactly as
// it would against a local mmap view — the mining output is identical.
//
// The process is stateless beyond its mapping: killing it mid-mine is
// always safe, because the coordinator fails over to the same frag-N.gfds
// file the server was started from.
//
// Examples:
//
//	gfdfrag -frag /data/frags/frag-1.gfds -listen :7701
//	gfdfrag -frag frag-0.gfds -listen 127.0.0.1:0            # prints the bound port
//	gfdfrag -frag frag-2.gfds -listen :7702 -fault drop=0.05,seed=1
//	gfdfrag -frag frag-1.gfds -listen :7701 -die-after 100   # crash-test the coordinator
//	gfdfrag -frag frag-1.gfds -listen :7701 -announce 127.0.0.1:7700
//	gfdfrag -frag frag-1.gfds -listen :7701 -announce 127.0.0.1:7700 -die-after 100 -resurrect-after 500ms
//
// With -announce the server registers itself with a coordinator's
// membership registry (gfddiscover -cluster) once it is listening: the
// coordinator learns the worker slot, address, node range, edge count
// and node-store fingerprint, validates them against its own cut, and
// routes that slot's join shares to this server — including mid-run,
// if the coordinator was already mining the slot from its spill file.
// The announce retries with backoff, so starting servers before the
// coordinator is fine.
//
// With -resurrect-after the -die-after crash does not exit the process:
// the server drops every connection and its listener (the coordinator
// sees exactly a worker loss and fails over to the spill file), then
// rebinds the same address after the delay and serves again — this time
// without the death trap. With -announce the recovered incarnation
// re-announces, and the coordinator adopts it at the next superstep
// boundary: re-announcing is the only way back from a failover.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/store"
)

func main() { os.Exit(run()) }

// tracer records the server lifecycle (serve, announce, die, resurrect)
// when -trace is set; the nil zero value makes every call a no-op.
var tracer *obs.Tracer

// run is the real main: it returns the exit status so the deferred
// profile flush always runs; the -die-after crash path flushes
// explicitly before its abrupt exit.
func run() int {
	frag := flag.String("frag", "", "fragment snapshot to serve (a frag-N.gfds written by Spill)")
	listen := flag.String("listen", "127.0.0.1:0", "listen address (port 0 picks a free port, printed on stdout)")
	fault := flag.String("fault", "", "fault injection spec: drop=P,corrupt=P,delay=D,closeafter=N,seed=S")
	dieAfter := flag.Int("die-after", 0, "exit(3) abruptly after serving this many frames (simulates a worker crash)")
	resurrectAfter := flag.Duration("resurrect-after", 0, "with -die-after: come back on the same address after this delay instead of exiting (dies once)")
	announce := flag.String("announce", "", "coordinator registry address (gfddiscover -cluster) to announce this fragment server to")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (flushed even on -die-after)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	tracePath := flag.String("trace", "", "write lifecycle events (serve, announce, die, resurrect) to this JSONL file (flushed even on -die-after)")
	debugAddr := flag.String("debug-addr", "", "serve live introspection (/metrics, /debug/pprof) on this address")
	flag.Parse()

	if *frag == "" {
		fmt.Fprintln(os.Stderr, "gfdfrag: -frag is required")
		return 2
	}
	spec, err := remote.ParseFaultSpec(*fault)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfdfrag: %v\n", err)
		return 2
	}
	prof, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfdfrag: %v\n", err)
		return 1
	}
	defer prof.Stop()
	if *tracePath != "" {
		tracer, err = obs.StartTrace(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfdfrag: %v\n", err)
			return 1
		}
		defer tracer.Close()
	}
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, obs.Default, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfdfrag: debug listen %s: %v\n", *debugAddr, err)
			return 1
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "gfdfrag: debug endpoint on http://%s\n", ds.Addr())
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gfdfrag: "+format+"\n", args...)
	}
	opts := remote.ServerOptions{
		Fault:    spec,
		DieAfter: *dieAfter,
		Logf:     logf,
	}
	if *dieAfter > 0 && *resurrectAfter <= 0 {
		opts.OnDeath = func() {
			// An abrupt exit, not a graceful drain: the coordinator must see
			// the same failure a kill -9 would produce. The profiles and the
			// span log are flushed first — a crash-test run is exactly when
			// they matter.
			fmt.Fprintf(os.Stderr, "gfdfrag: dying after %d frames (-die-after)\n", *dieAfter)
			tracer.Event("die", "frames", fmt.Sprint(*dieAfter))
			tracer.Close()
			prof.Stop()
			os.Exit(3)
		}
	}

	if err := serve(*frag, *listen, opts, *resurrectAfter, *announce); err != nil {
		fmt.Fprintf(os.Stderr, "gfdfrag: %v\n", err)
		return 1
	}
	return 0
}

// announceTo registers the served fragment with a coordinator's
// membership registry. Retries cover the usual race of fragment servers
// starting before the coordinator's registry is up.
func announceTo(registry string, info remote.AnnounceInfo) {
	epoch, err := remote.Announce(context.Background(), registry, info, remote.Options{
		Backoff: remote.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Factor: 2, Jitter: 0.5, Attempts: 30},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfdfrag: announce: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "gfdfrag: announced worker %d at %s to %s (epoch %d)\n", info.Worker, info.Addr, registry, epoch)
	tracer.Event("announce", "worker", fmt.Sprint(info.Worker), "addr", info.Addr, "epoch", fmt.Sprint(epoch))
	tracer.Flush()
}

// serve runs the server's lifecycle: map the fragment, listen, announce
// (with a registry address) and serve. With -resurrect-after, a
// -die-after crash (Serve returns after the abrupt connection drop) is
// followed by a rebind of the same bound address after the delay, and
// the same mapping is served indefinitely.
func serve(fragPath, listen string, opts remote.ServerOptions, delay time.Duration, announce string) error {
	m, err := store.Open(fragPath)
	if err != nil {
		return err
	}
	defer m.Close()
	info, err := remote.FragmentAnnounceInfo(m, "")
	if err != nil {
		return fmt.Errorf("%s: %w", fragPath, err)
	}
	s, err := remote.NewServer(m, opts)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	info.Addr = l.Addr().String()
	// The bound address is the first stdout line — coordinators and tests
	// parse it, which is what makes -listen :0 usable.
	fmt.Printf("listening %s\n", info.Addr)
	tracer.Event("serve", "addr", info.Addr)
	tracer.Flush()
	if announce != "" {
		go announceTo(announce, info)
	}
	err = s.Serve(l)
	if opts.DieAfter <= 0 || delay <= 0 {
		if errors.Is(err, net.ErrClosed) {
			err = nil
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "gfdfrag: died after %d frames; resurrecting on %s in %s\n", opts.DieAfter, info.Addr, delay)
	tracer.Event("die", "frames", fmt.Sprint(opts.DieAfter))
	tracer.Flush()
	time.Sleep(delay)
	opts.DieAfter = 0 // the recovered incarnation stays up
	s2, err := remote.NewServer(m, opts)
	if err != nil {
		return err
	}
	l2, err := net.Listen("tcp", info.Addr)
	if err != nil {
		return fmt.Errorf("rebinding %s: %w", info.Addr, err)
	}
	fmt.Printf("resurrected %s\n", info.Addr)
	tracer.Event("resurrect", "addr", info.Addr)
	tracer.Flush()
	if announce != "" {
		// Re-announce: the coordinator has failed this worker over to its
		// spill file (and its monitor may have dropped it from the map); a
		// fresh announcement lets the balancer adopt the recovered server
		// at the next superstep boundary.
		go announceTo(announce, info)
	}
	return s2.Serve(l2)
}
