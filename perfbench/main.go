// Command perfbench times whole GFD discovery runs — SeqDis, ParDis on a
// concurrent two-worker cluster, and ParDis with one worker served over
// loopback TCP — through the repository's public entry points, checks
// every run's mined Σ against a sequential reference, and prints one JSON
// result line. With -trace 1 it instead wraps the discovery.Backend and
// discovery.Evaluator interfaces and reports where each run's time went,
// layer by layer.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload seq-lattice --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// maxRunTime caps one invocation: no repetition starts once this much
// wall time has passed, whatever -seconds says.
const maxRunTime = 120 * time.Second

// scratchDir, relative to the checkout root the benchmark runs from,
// holds spill directories and span logs.
const scratchDir = ".bench_build"

// minSetups is the least number of set-up samples setup_s is the median
// of; set-ups beyond the ones the repetitions made are done standalone.
const minSetups = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed of the graph's node numbering and edge order")
		seconds   = flag.Int("seconds", 20, "measurement window in seconds")
		traced    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		reference = flag.Bool("reference", false, "print the canonical sequential reference Σ and exit")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *reference {
		_, err := fmt.Print(w.reference(*seed))
		return err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}

	b := &bench{w: w, seed: *seed}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: computing the sequential reference\n", w.name, *seed)
	if err := b.loadReference(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	window := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = b.measureTraced(window)
	} else {
		res, err = b.measure(window)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// median returns the median of xs (the mean of the middle two for even
// lengths); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
