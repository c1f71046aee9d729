package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Process-wide counters of the program's metrics registry, read as
// deltas around each traced discovery.
var (
	cPlanCompiles = obs.Default.Counter("gfd_match_plan_compiles_total")
	cStealSeq     = obs.Default.Counter("gfd_steal_chunks_total", "backend", "seqdis")
	cStealPar     = obs.Default.Counter("gfd_steal_chunks_total", "backend", "pardis")
	cRPCCalls     = obs.Default.Counter("gfd_rpc_calls_total")
	cRPCRetries   = obs.Default.Counter("gfd_rpc_retries_total")
	cFailovers    = obs.Default.Counter("gfd_remote_failovers_total")
)

// bench runs one workload at one seed.
type bench struct {
	w    *workload
	seed int64
	ref  string // canonical Σ and cover of the sequential reference
	dirs int    // spill directories handed out so far
}

// loadReference computes the sequential reference in a child process of
// this binary, so its memory stays out of this process's peak RSS and
// its CPU out of this process's rusage.
func (b *bench) loadReference() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-workload", b.w.name, "-seed", strconv.FormatInt(b.seed, 10), "-reference")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return err
	}
	b.ref = string(out)
	return nil
}

// rep is what one repetition measured.
type rep struct {
	setup    time.Duration
	discover time.Duration
	cpu      time.Duration
	allocs   uint64
	gcCycles uint32
	gcPause  time.Duration
	counts   registryCounts // registry counter deltas over the discovery
	out      *outcome
	setUp    bool      // the set-up succeeded, so setup is a sample
	rec      *recorder // the traced repetition's spans; nil when untraced
	err      error     // set up, compare or tear down failure: the repetition failed
}

func (b *bench) spillDir() string {
	b.dirs++
	return filepath.Join(scratchDir, fmt.Sprintf("spill-%d-%d", os.Getpid(), b.dirs))
}

// setupOnly times one standalone set-up and tears it down again.
func (b *bench) setupOnly() (time.Duration, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	e, err := b.w.setup(b.seed, b.spillDir(), nil)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, e.close()
}

// repeat runs one repetition: fresh inputs, one discovery (traced when
// rec is non-nil), the correctness check against the reference, and
// tear-down. Set-up and discovery each start from a collected heap
// whose free pages were returned to the OS, as in a fresh process.
func (b *bench) repeat(rec *recorder) rep {
	r := rep{rec: rec}
	debug.FreeOSMemory()
	t0 := time.Now()
	e, err := b.w.setup(b.seed, b.spillDir(), rec)
	r.setup = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("set up: %w", err)
		return r
	}
	r.setUp = true
	debug.FreeOSMemory()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := readRegistry()
	cpu0 := cpuTime()
	if rec == nil {
		r.out, r.discover = b.w.discover(e)
	} else {
		r.out, r.discover = b.w.discoverTraced(e, rec)
	}
	r.cpu = cpuTime() - cpu0
	c1 := readRegistry()
	runtime.ReadMemStats(&ms1)
	r.allocs = ms1.Mallocs - ms0.Mallocs
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	r.counts = c1.minus(c0)

	switch {
	case canonicalSigma(r.out.res, r.out.cover) != b.ref:
		r.err = fmt.Errorf("mined Σ differs from the sequential reference")
	case r.out.res.Stats.Cancelled:
		r.err = fmt.Errorf("discovery was cancelled")
	case e.rf != nil && e.rf.FailedOver():
		r.err = fmt.Errorf("remote fragment failed over")
	}
	if err := e.close(); err != nil && r.err == nil {
		r.err = fmt.Errorf("tear down: %w", err)
	}
	return r
}

// registryCounts are the registry counters a traced repetition reports.
type registryCounts struct {
	planCompiles, stealChunks, rpcCalls, rpcRetries, failovers int64
}

func readRegistry() registryCounts {
	return registryCounts{
		planCompiles: cPlanCompiles.Value(),
		stealChunks:  cStealSeq.Value() + cStealPar.Value(),
		rpcCalls:     cRPCCalls.Value(),
		rpcRetries:   cRPCRetries.Value(),
		failovers:    cFailovers.Value(),
	}
}

func (c registryCounts) minus(o registryCounts) registryCounts {
	return registryCounts{
		planCompiles: c.planCompiles - o.planCompiles,
		stealChunks:  c.stealChunks - o.stealChunks,
		rpcCalls:     c.rpcCalls - o.rpcCalls,
		rpcRetries:   c.rpcRetries - o.rpcRetries,
		failovers:    c.failovers - o.failovers,
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// loop runs repetitions until the window has passed and at least
// minReps ran, handing each to fn; traced reports whether repetition i
// is traced.
func (b *bench) loop(window time.Duration, minReps int, traced func(i int) bool, fn func(r rep)) (attempted, failed int) {
	start := time.Now()
	for i := 0; i < minReps || (time.Since(start) < window && time.Since(start) < maxRunTime); i++ {
		var rec *recorder
		if traced(i) {
			rec = newRecorder(i)
		}
		r := b.repeat(rec)
		attempted++
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s repetition %d failed: %v\n", b.w.name, i, r.err)
		}
		fn(r)
	}
	return attempted, failed
}

// report renders medians of samples under the metrics of defs.
func report(defs []metricDef, samples map[string][]float64, attempted, failed int) *result {
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.name] = metric{median(samples[d.name]), d.unit}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// measure runs untraced repetitions for the window and reports the
// end-to-end metrics: medians over the successful repetitions.
func (b *bench) measure(window time.Duration) (*result, error) {
	samples := make(map[string][]float64)
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	attempted, failed := b.loop(window, 1, func(int) bool { return false }, func(r rep) {
		if r.setUp {
			add("setup_s", r.setup.Seconds())
		}
		if r.err == nil {
			add("discover_s", r.discover.Seconds())
			add("cpu_s", r.cpu.Seconds())
			add("allocs_m", float64(r.allocs)/1e6)
		}
	})
	for len(samples["setup_s"]) < minSetups {
		d, err := b.setupOnly()
		if err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		add("setup_s", d.Seconds())
	}
	add("peak_rss_mb", peakRSSMB())
	add("ok_frac", float64(attempted-failed)/float64(attempted))
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d repetitions, discover_s %v\n", b.w.name, attempted, samples["discover_s"])
	return report(endToEnd, samples, attempted, failed), nil
}

// measureTraced alternates untraced and traced repetitions for the
// window and reports the per-layer metrics: medians over the successful
// traced repetitions, plus the tracing overhead against the untraced
// ones. The traced repetitions' spans are written under the scratch
// directory.
func (b *bench) measureTraced(window time.Duration) (*result, error) {
	samples := make(map[string][]float64)
	var plain []float64
	var recs []*recorder
	attempted, failed := b.loop(window, 2, func(i int) bool { return i%2 == 1 }, func(r rep) {
		switch {
		case r.err != nil:
		case r.rec == nil:
			plain = append(plain, r.discover.Seconds())
		default:
			recs = append(recs, r.rec)
			for name, v := range layerMetrics(r) {
				samples[name] = append(samples[name], v)
			}
		}
	})
	if p := median(plain); p > 0 && len(recs) > 0 {
		samples["trace.overhead_frac"] = []float64{median(samples["trace.discover_s"])/p - 1}
	}

	dir := filepath.Join(scratchDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spanPath := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := writeSpans(spanPath, recs); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d repetitions (%d traced), spans in %s\n", b.w.name, attempted, len(recs), spanPath)
	return report(perLayer, samples, attempted, failed), nil
}
