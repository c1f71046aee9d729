package main

import "strconv"

// metricDef names a reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the metrics of an untraced run; BENCHMARK.json lists
// the same names and units.
var endToEnd = []metricDef{
	{"discover_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"allocs_m", "million"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
}

// perLayer lists the metrics of a traced run; BENCHMARK.json lists the
// same names and units. Metrics of a layer a workload does not use
// (store and remote outside remote-join, cluster on the sequential
// workloads) read 0.
var perLayer = []metricDef{
	{"graph.gen_s", "s"},
	{"store.spill_s", "s"},
	{"store.attach_s", "s"},
	{"remote.dial_s", "s"},
	{"discovery.profile_s", "s"},
	{"backend.init_s", "s"},
	{"parallel.partition_s", "s"},
	{"discovery.self_s", "s"},
	{"discovery.level0.self_s", "s"},
	{"discovery.level1.self_s", "s"},
	{"discovery.level2.self_s", "s"},
	{"discovery.level3.self_s", "s"},
	{"discovery.level4.self_s", "s"},
	{"discovery.candidates_checked", "count"},
	{"discovery.candidates_pruned", "count"},
	{"discovery.yield", "ratio"},
	{"discovery.cover_s", "s"},
	{"discovery.cover_in", "count"},
	{"discovery.cover_out", "count"},
	{"match.seed_s", "s"},
	{"match.extend_s", "s"},
	{"match.level1.extend_s", "s"},
	{"match.level2.extend_s", "s"},
	{"match.level3.extend_s", "s"},
	{"match.level4.extend_s", "s"},
	{"match.release_s", "s"},
	{"match.table_rows", "count"},
	{"match.pattern_yield", "ratio"},
	{"match.plan_compiles", "count"},
	{"eval.index_s", "s"},
	{"eval.constants_s", "s"},
	{"eval.query_s", "s"},
	{"eval.query_calls", "count"},
	{"parallel.steal_chunks", "count"},
	{"cluster.supersteps", "count"},
	{"cluster.skew", "ratio"},
	{"cluster.comm_mb", "MB"},
	{"remote.wire_mb", "MB"},
	{"remote.rpc_calls", "count"},
	{"remote.rpc_retries", "count"},
	{"remote.failovers", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"trace.discover_s", "s"},
	{"trace.attributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// layerTimes are the self-time metrics that partition a traced
// discovery: their sum over a repetition is its traced discover_s, up
// to the root span's own few microseconds of glue.
var layerTimes = []string{
	"discovery.profile_s", "backend.init_s", "parallel.partition_s", "discovery.self_s", "discovery.cover_s",
	"match.seed_s", "match.extend_s", "match.release_s", "eval.index_s", "eval.constants_s", "eval.query_s",
}

// maxReportedLevel is the deepest pattern level reported on its own;
// every workload stops at MaxLevels = 4.
const maxReportedLevel = 4

func secs(ns int64) float64 { return float64(ns) / 1e9 }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics computes one traced repetition's per-layer metrics from
// its spans, its aggregated Evaluator calls and its counters.
func layerMetrics(r rep) map[string]float64 {
	rec, out := r.rec, r.out
	self := rec.selfByName()
	m := map[string]float64{
		"graph.gen_s":          secs(self["graph.gen"]),
		"store.spill_s":        secs(self["store.spill"]),
		"store.attach_s":       secs(self["store.attach"]),
		"remote.dial_s":        secs(self["remote.dial"]),
		"discovery.profile_s":  secs(self["discovery.profile"]),
		"backend.init_s":       secs(self["backend.init"]),
		"parallel.partition_s": secs(self["parallel.partition"]),
		"discovery.self_s":     secs(self["discovery.mine"] - rec.evalTotalNs()),
		"discovery.cover_s":    secs(self["discovery.cover"]),
		"match.seed_s":         secs(self["match.seed"]),
		"match.extend_s":       secs(self["match.extend"]),
		"match.release_s":      secs(self["match.release"]),
		"eval.index_s":         secs(self["eval.index"]),
		"eval.constants_s":     secs(self["eval.constants"]),
		"eval.query_s":         secs(rec.evalTotalNs()),
		"eval.query_calls":     float64(rec.evalTotalCalls()),

		"discovery.candidates_checked": float64(out.res.Stats.CandidatesChecked),
		"discovery.candidates_pruned":  float64(out.res.Stats.CandidatesPruned),
		"discovery.yield":              ratio(len(out.res.Positives)+len(out.res.Negatives), out.res.Stats.CandidatesChecked),
		"discovery.cover_in":           float64(len(out.res.Positives) + len(out.res.Negatives)),
		"discovery.cover_out":          float64(len(out.cover)),
		"match.table_rows":             float64(out.tableRows),
		"match.pattern_yield":          ratio(out.res.Stats.PatternsFrequent, out.res.Stats.PatternsVerified),

		"match.plan_compiles":   float64(r.counts.planCompiles),
		"parallel.steal_chunks": float64(r.counts.stealChunks),
		"remote.rpc_calls":      float64(r.counts.rpcCalls),
		"remote.rpc_retries":    float64(r.counts.rpcRetries),
		"remote.failovers":      float64(r.counts.failovers),

		"cluster.supersteps": float64(out.mine.Supersteps + out.coverStats.Supersteps),
		"cluster.comm_mb":    float64(out.mine.Bytes+out.coverStats.Bytes) / 1e6,
		"remote.wire_mb":     float64(out.mine.MeasuredBytes) / 1e6,
		"gc.cycles":          float64(r.gcCycles),
		"gc.pause_s":         r.gcPause.Seconds(),
		"trace.discover_s":   r.discover.Seconds(),
	}
	if len(out.mine.WorkerBusy) > 0 {
		m["cluster.skew"] = out.mine.Skew()
	}
	for level, ns := range rec.levelSelf {
		if level <= maxReportedLevel {
			m[levelName("discovery.level", level, ".self_s")] = secs(ns)
		}
	}
	for level, ns := range rec.durationByLevel("match.extend") {
		if level >= 1 && level <= maxReportedLevel {
			m[levelName("match.level", level, ".extend_s")] = secs(ns)
		}
	}
	var attributed float64
	for _, name := range layerTimes {
		attributed += m[name]
	}
	m["trace.attributed_frac"] = attributed / r.discover.Seconds()
	return m
}

func levelName(prefix string, level int, suffix string) string {
	return prefix + strconv.Itoa(level) + suffix
}
