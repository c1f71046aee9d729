package cli

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/discovery"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/remote"
	"repro/internal/store"
)

// RemoteRuntime configures DiscoverRemote's in-process fragment servers:
// chaos testing and lifecycle injection.
type RemoteRuntime struct {
	// Fault wraps every in-process server connection for chaos testing.
	Fault remote.FaultSpec
	// DieAfter, when positive, makes every in-process fragment server die
	// abruptly after serving that many frames — the coordinator sees a
	// mid-mine worker loss and fails over to the spill file.
	DieAfter int
	// RestartAfter, when positive alongside DieAfter, resurrects each
	// dead in-process server on its original address after this delay
	// (without the death trap — it dies once). The resurrected server
	// re-announces, and the coordinator adopts it at the next superstep
	// boundary.
	RestartAfter time.Duration
}

// fragServer is one in-process fragment server plus the lifecycle the
// runtime may impose on it: announce to the coordinator's registry, die
// abruptly after N frames, then (when RestartAfter is set) come back on
// the same address and announce again.
type fragServer struct {
	m        *store.MappedGraph
	fault    remote.FaultSpec
	info     remote.AnnounceInfo
	registry string
	ctx      context.Context
	cancel   context.CancelFunc

	mu      sync.Mutex
	s       *remote.Server
	stopped bool
}

// startFragServer opens the fragment, binds a loopback port, begins
// serving and announces the server to registry.
func startFragServer(fragPath, registry string, rt RemoteRuntime) (*fragServer, error) {
	m, err := store.Open(fragPath)
	if err != nil {
		return nil, err
	}
	s, err := remote.NewServer(m, remote.ServerOptions{Fault: rt.Fault, DieAfter: rt.DieAfter})
	if err != nil {
		m.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		m.Close()
		return nil, err
	}
	info, err := remote.FragmentAnnounceInfo(m, l.Addr().String())
	if err != nil {
		l.Close()
		s.Close()
		m.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	fs := &fragServer{m: m, fault: rt.Fault, info: info, registry: registry, ctx: ctx, cancel: cancel, s: s}
	go fs.announce()
	go fs.run(s, l, rt.RestartAfter)
	return fs, nil
}

// announce registers the server with the coordinator's registry. A
// failed announcement is not an error: the slot mines from its spill
// file, exactly as if the server were down.
func (fs *fragServer) announce() {
	remote.Announce(fs.ctx, fs.registry, fs.info, remote.Options{
		Backoff: remote.Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 20},
	})
}

// run serves until the server dies or stops. With a restart delay, a
// death (DieAfter closing the listener) is followed by a rebind of the
// same address, a fresh server over the same mapping — this time
// without the death trap — and a fresh announcement for the balancer to
// adopt.
func (fs *fragServer) run(s *remote.Server, l net.Listener, restartAfter time.Duration) {
	s.Serve(l)
	if restartAfter <= 0 {
		return
	}
	time.Sleep(restartAfter)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.stopped {
		return
	}
	s2, err := remote.NewServer(fs.m, remote.ServerOptions{Fault: fs.fault})
	if err != nil {
		return
	}
	l2, err := net.Listen("tcp", fs.info.Addr)
	if err != nil {
		// The freed port was taken in the gap; the fragment simply stays
		// failed over — correctness is unaffected.
		s2.Close()
		return
	}
	fs.s = s2
	go s2.Serve(l2)
	go fs.announce()
}

// stop shuts the current incarnation down and releases the mapping.
func (fs *fragServer) stop() {
	fs.cancel()
	fs.mu.Lock()
	fs.stopped = true
	s := fs.s
	fs.mu.Unlock()
	s.Close()
	fs.m.Close()
}

// DiscoverRemote runs the parallel pipeline with the workers split
// across the distributed runtime, all inside this process: v is
// vertex-cut and spilled to dir like DiscoverSpilled, a membership
// registry binds a loopback port, and every worker except worker 0 gets
// an in-process fragment server that announces itself to it — worker 0
// stays a local mmap view, so the run always mixes both kinds. From
// there the run is DiscoverCluster's: each dialed fragment falls back to
// its own spill file, so a dead server leaves the mining output
// unchanged, and a restarted one rejoins by re-announcing.
func DiscoverRemote(v graph.View, opts discovery.Options, workers int, dir string, rt RemoteRuntime) (*Report, error) {
	if workers < 2 {
		return nil, fmt.Errorf("cli: remote mining needs -workers >= 2 (worker 0 stays local)")
	}
	att, err := spillAndAttach(v, workers, dir)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		att.Close()
		return nil, err
	}
	for w := 1; w < workers; w++ {
		fs, err := startFragServer(filepath.Join(dir, parallel.FragmentSnapshotName(w)), l.Addr().String(), rt)
		if err != nil {
			l.Close()
			att.Close()
			return nil, err
		}
		defer fs.stop()
	}
	copts := remote.Options{CallTimeout: time.Second}
	if rt.Fault.Active() || rt.DieAfter > 0 {
		// Injected faults (and deliberate server deaths) make dropped
		// responses routine, and every drop costs one CallTimeout: keep
		// the deadline tight and spend the saved time on more retry
		// attempts instead.
		copts.CallTimeout = 100 * time.Millisecond
		copts.Backoff = remote.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 12}
	}
	return runCluster(att, opts, workers, dir, l, ClusterRuntime{}.withDefaults(workers), copts)
}
