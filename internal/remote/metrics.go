package remote

import (
	"repro/internal/cluster"
	"repro/internal/obs"
)

// Package-level handles on the default registry: the remote plane's
// RPC, failover and health accounting, scraped by the -debug-addr
// /metrics endpoint. Handles are process-wide cumulative; per-run
// deltas belong to cluster.Stats.
var (
	mRPCCalls    = obs.Default.Counter("gfd_rpc_calls_total")
	mRPCRetries  = obs.Default.Counter("gfd_rpc_retries_total")
	mRPCFailures = obs.Default.Counter("gfd_rpc_failures_total")
	hRPCCall     = obs.Default.Histogram("gfd_rpc_call_seconds")
	hShare       = obs.Default.Histogram("gfd_remote_share_seconds")
	mFailovers   = obs.Default.Counter("gfd_remote_failovers_total")
	mAdoptions   = obs.Default.Counter("gfd_remote_adoptions_total")
)

// healthTransition bumps the labelled transition counter. Transitions
// are rare (probe-cadence events), so the registry lookup per call is
// fine.
func healthTransition(from, to cluster.HealthState) {
	obs.Default.Counter("gfd_health_transitions_total",
		"from", from.String(), "to", to.String()).Inc()
}
