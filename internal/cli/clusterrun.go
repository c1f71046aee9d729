package cli

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/discovery"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/remote"
)

// ClusterRuntime configures DiscoverCluster: a coordinator that serves a
// membership registry instead of being told worker addresses. Fragment
// servers announce themselves (gfdfrag -announce), the coordinator
// health-checks them, routes around suspects with tighter hedge delays,
// fails over dead ones to their spill files, and adopts late joiners at
// superstep boundaries.
type ClusterRuntime struct {
	// Addr is the registry listen address (host:port; port 0 picks one).
	Addr string
	// WaitMembers is how many announced members to wait for before mining
	// starts (default workers-1: every remote slot). Slots still empty
	// when the wait ends mine from their spill files until a member
	// announces mid-run.
	WaitMembers int
	// WaitTimeout bounds the member wait (default 30s). Timing out is not
	// an error — mining proceeds with whatever has announced.
	WaitTimeout time.Duration
	// HedgeAfter enables hedged replica reads on every dialed fragment;
	// see remote.Options.HedgeAfter. Zero disables hedging.
	HedgeAfter time.Duration
	// HealthInterval is the heartbeat cadence (default 1s).
	HealthInterval time.Duration
	// Health tunes the per-member state machine (zero values = defaults).
	Health cluster.HealthConfig
	// DebugAddr, when non-empty, serves the live introspection endpoint
	// (/metrics, /cluster, /debug/pprof) on this address for the whole
	// run — it comes up before the member wait so the cluster is
	// observable while it assembles.
	DebugAddr string
	// Logf, if set, receives membership/health/balancer event lines.
	Logf func(format string, args ...any)
}

func (crt ClusterRuntime) withDefaults(workers int) ClusterRuntime {
	c := crt
	if c.WaitMembers <= 0 || c.WaitMembers > workers-1 {
		c.WaitMembers = workers - 1
	}
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 30 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	return c
}

// ensureClusterCut attaches dir's fragment cut for the coordinator,
// spilling a fresh one only when the directory does not already hold a
// valid cut of v for this worker count. Reuse matters: externally
// started gfdfrag servers have dir's frag-N.gfds files mmapped, and
// rewriting the bytes under them would corrupt every announced member.
func ensureClusterCut(v graph.View, workers int, dir string) (*parallel.Attached, error) {
	if att, err := parallel.Attach(dir); err == nil {
		if att.Workers() == workers &&
			att.Graph.NumNodes() == v.NumNodes() &&
			remote.Fingerprint(att.Graph) == remote.Fingerprint(v) {
			return att, nil
		}
		att.Close()
		return nil, fmt.Errorf("cli: %s holds a different cut (want %d fragments of this graph); refusing to overwrite a directory announced servers may be serving — point -fragdir elsewhere or remove it", dir, workers)
	}
	return spillAndAttach(v, workers, dir)
}

// DiscoverCluster runs the parallel pipeline against a self-assembling
// cluster: the coordinator binds a registry endpoint on crt.Addr,
// externally started fragment servers announce themselves into it, and
// each announced worker slot is dialed while unannounced slots mine
// locally from their spill files (and go remote when a member joins at
// a superstep boundary). A health monitor pings every dialed member:
// suspects hedge sooner, dead members fail over to their spill attach
// and leave the map, and a restarted member rejoins by re-announcing.
// Mining output is byte-identical to a local run regardless of joins,
// leaves, and hedge outcomes.
//
// Worker 0 is always the coordinator's local mmap view; workers 1..n-1
// are cluster slots. The returned report carries the final cluster map
// size, epoch, hedge counters and adoption count.
func DiscoverCluster(v graph.View, opts discovery.Options, workers int, dir string, crt ClusterRuntime) (*Report, error) {
	if workers < 2 {
		return nil, fmt.Errorf("cli: cluster mining needs -workers >= 2 (worker 0 stays local)")
	}
	att, err := ensureClusterCut(v, workers, dir)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", crt.Addr)
	if err != nil {
		att.Close()
		return nil, fmt.Errorf("cli: registry listen %s: %w", crt.Addr, err)
	}
	return runCluster(att, opts, workers, dir, l, crt.withDefaults(workers), remote.Options{CallTimeout: time.Second})
}

// runCluster is the distributed run behind DiscoverCluster and
// DiscoverRemote: it serves the membership registry on l, waits for
// members, dials the announced slots (each fragment's remote.Options is
// copts plus its spill file, hedge delay, logger and trace), and mines
// with the balancer adopting joins and re-announcements at superstep
// boundaries.
func runCluster(att *parallel.Attached, opts discovery.Options, workers int, dir string,
	l net.Listener, rt ClusterRuntime, copts remote.Options) (*Report, error) {
	logf := rt.Logf
	// Registry: announcements are vetted against the coordinator's own
	// attach of the cut — worker slot in range, matching node range, edge
	// count and node-store fingerprint.
	reg := cluster.NewRegistry()
	wantFP := remote.Fingerprint(att.Graph)
	rs := remote.NewRegistryServer(reg, remote.RegistryServerOptions{
		Logf: logf,
		Validate: func(a remote.AnnounceInfo) error {
			if a.Worker < 1 || a.Worker >= workers {
				return fmt.Errorf("worker %d out of range [1,%d)", a.Worker, workers)
			}
			if a.Fingerprint != wantFP {
				return fmt.Errorf("node-store fingerprint %016x, coordinator has %016x (different graph?)", a.Fingerprint, wantFP)
			}
			f := att.Frags[a.Worker]
			if a.NodeLo != f.NodeLo || a.NodeHi != f.NodeHi {
				return fmt.Errorf("owns [%d,%d), slot %d owns [%d,%d)", a.NodeLo, a.NodeHi, a.Worker, f.NodeLo, f.NodeHi)
			}
			if a.NumEdges != f.EdgeCount() {
				return fmt.Errorf("%d edges, slot %d holds %d", a.NumEdges, a.Worker, f.EdgeCount())
			}
			return nil
		},
	})
	go rs.Serve(l)
	defer rs.Close()
	if logf != nil {
		logf("cluster: registry listening on %s; waiting for %d member(s)", l.Addr(), rt.WaitMembers)
	}

	eng := cluster.New(cluster.Config{Workers: workers, Obs: obs.Default, Trace: opts.Trace})
	mon := remote.NewMonitor(context.Background(), remote.MonitorOptions{
		Interval:  rt.HealthInterval,
		Health:    rt.Health,
		Logf:      logf,
		Trace:     opts.Trace,
		RecordRTT: func(_ int, rtt time.Duration) { eng.RecordPing(rtt) },
		OnDead: func(w int, _ *remote.RemoteFragment) {
			// A dead member leaves the map so a replacement can claim the
			// slot. The leave carries the epoch it was decided at; if the
			// member re-announced in the gap the registry refuses it.
			if _, err := reg.Leave(w, reg.Epoch()); err != nil && logf != nil {
				logf("cluster: leave for worker %d refused: %v", w, err)
			}
		},
	})
	defer mon.Close()
	bal := remote.NewBalancer(reg, mon, logf)

	// Live introspection comes up before the member wait so the cluster
	// is observable while it assembles (and for the whole mining run).
	if rt.DebugAddr != "" {
		ds, err := obs.ServeDebug(rt.DebugAddr, obs.Default, func() obs.ClusterInfo {
			members, epoch := reg.Snapshot()
			info := obs.ClusterInfo{Epoch: epoch}
			for w := 1; w < workers; w++ {
				m, ok := members[w]
				if !ok {
					continue
				}
				info.Members = append(info.Members, obs.MemberInfo{
					Worker:   w,
					Addr:     m.Addr,
					State:    mon.State(w).String(),
					RTTp50Ms: float64(mon.RTTQuantile(w, 0.50)) / 1e6,
					RTTp95Ms: float64(mon.RTTQuantile(w, 0.95)) / 1e6,
					RTTp99Ms: float64(mon.RTTQuantile(w, 0.99)) / 1e6,
				})
			}
			return info
		})
		if err != nil {
			att.Close()
			return nil, fmt.Errorf("cli: debug listen %s: %w", rt.DebugAddr, err)
		}
		defer ds.Close()
		if logf != nil {
			logf("cluster: debug endpoint on http://%s (/metrics /cluster /debug/pprof)", ds.Addr())
		}
	}

	wctx, wcancel := context.WithTimeout(context.Background(), rt.WaitTimeout)
	if err := reg.Wait(wctx, rt.WaitMembers); err != nil && logf != nil {
		logf("cluster: proceeding with %d/%d members after %s", reg.Size(), rt.WaitMembers, rt.WaitTimeout)
	}
	wcancel()

	frags := make([]parallel.Fragment, workers)
	copy(frags, att.Frags)
	remotes := make([]*remote.RemoteFragment, 0, workers-1)
	members, _ := reg.Snapshot()
	copts.HedgeAfter, copts.Logf, copts.Trace = rt.HedgeAfter, logf, opts.Trace
	for w := 1; w < workers; w++ {
		fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(w))
		copts.FallbackPath = fragPath
		var rf *remote.RemoteFragment
		var err error
		if m, ok := members[w]; ok {
			rf, err = remote.Dial(context.Background(), m.Addr, att.Graph, copts)
			if err != nil {
				// The member announced but will not serve: drop it and mine
				// this slot locally until a replacement joins.
				if logf != nil {
					logf("cluster: worker %d at %s failed to dial (%v); mining locally", w, m.Addr, err)
				}
				if _, lerr := reg.Leave(w, reg.Epoch()); lerr != nil && logf != nil {
					logf("cluster: leave for worker %d refused: %v", w, lerr)
				}
				rf = nil
			}
		}
		adopted := ""
		if rf != nil {
			adopted = rf.Addr()
			mon.Watch(rf)
		} else {
			rf, err = remote.NewLocalFragment(context.Background(), att.Graph, fragPath, copts)
			if err != nil {
				att.Close()
				return nil, fmt.Errorf("cli: worker %d: %w", w, err)
			}
		}
		bal.Manage(rf, adopted)
		remotes = append(remotes, rf)
		frags[w].Sub = rf
	}

	steal0 := stealChunkTotal()
	pr := parallel.MineFragments(context.Background(), att.Graph, frags, opts, eng,
		parallel.Options{LoadBalance: true, Membership: bal})
	mon.Close()

	st := eng.Stats()
	rep := &Report{
		SimulatedTime: pr.Cluster.Total(),
		FragmentEdges: pr.FragmentEdges,
		MeasuredBytes: pr.Cluster.MeasuredBytes,
		HedgesFired:   st.HedgesFired,
		HedgesWon:     st.HedgesWon,
		Members:       reg.Size(),
		Epoch:         reg.Epoch(),
		Adoptions:     bal.Adoptions(),
		StealChunks:   stealChunkTotal() - steal0,
	}
	for _, rf := range remotes {
		if rf.FailedOver() {
			rep.FailedOver++
		}
		if rf.Rejoined() {
			rep.Rejoined++
		}
	}
	rep.fill(pr.Result)
	return rep, nil
}
