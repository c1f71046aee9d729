package remote

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
)

// RegistryServerOptions configures the coordinator's membership endpoint.
type RegistryServerOptions struct {
	// Validate, if set, vets an announcement before it enters the cluster
	// map — the coordinator checks the claimed worker slot, node range,
	// edge count and node-store fingerprint against its own attach of the
	// cut, so a server holding the wrong fragment (or a fragment of a
	// different graph) is refused at the door.
	Validate func(AnnounceInfo) error
	// Logf, if set, receives one line per membership event.
	Logf func(format string, args ...any)
}

// RegistryServer serves the coordinator's cluster.Registry over the
// frame protocol: fragment servers Announce themselves into it and get
// the new epoch back. It also echoes Ping frames so announcers can
// health-check the registry itself. Announcements are rare control
// traffic — frames on one connection are handled serially.
type RegistryServer struct {
	reg  *cluster.Registry
	opts RegistryServerOptions

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// NewRegistryServer wraps a cluster map for serving.
func NewRegistryServer(reg *cluster.Registry, opts RegistryServerOptions) *RegistryServer {
	return &RegistryServer{
		reg:       reg,
		opts:      opts,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

func (s *RegistryServer) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts connections on l until Close. It blocks; the returned
// error is nil on clean shutdown.
func (s *RegistryServer) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("remote: registry server closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, l)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func(c net.Conn) {
			defer s.wg.Done()
			s.handle(c)
			c.Close()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}(c)
	}
}

// Close shuts the registry endpoint down; the registry itself (and its
// epoch) lives on with the coordinator.
func (s *RegistryServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// handle serves one connection's frames serially until it errors.
func (s *RegistryServer) handle(c net.Conn) {
	for {
		typ, tag, payload, _, err := readFrame(c)
		if err != nil {
			return
		}
		respType, resp := s.dispatch(typ, payload)
		if _, err := writeFrame(c, respType, tag, resp); err != nil {
			return
		}
	}
}

func (s *RegistryServer) dispatch(typ uint32, payload []byte) (uint32, []byte) {
	var err error
	switch typ {
	case msgPing:
		return msgPong, payload
	case msgAnnounce:
		var a AnnounceInfo
		if a, err = decodeAnnounce(payload); err == nil {
			var epoch uint64
			if epoch, err = s.admit(a); err == nil {
				return msgAnnounceOK, encodeAnnounceOK(epoch)
			}
		}
	default:
		err = fmt.Errorf("unexpected message type %d on the registry endpoint", typ)
	}
	var w wbuf
	w.str(err.Error())
	return msgError, w.b
}

// admit vets one announcement and registers it.
func (s *RegistryServer) admit(a AnnounceInfo) (uint64, error) {
	if s.opts.Validate != nil {
		if err := s.opts.Validate(a); err != nil {
			s.logf("registry: refused worker %d at %s: %v", a.Worker, a.Addr, err)
			return 0, err
		}
	}
	epoch, err := s.reg.Announce(a.Worker, a.Addr, a.Epoch)
	if err != nil {
		s.logf("registry: refused worker %d at %s: %v", a.Worker, a.Addr, err)
		return 0, err
	}
	s.logf("registry: worker %d announced at %s (epoch %d)", a.Worker, a.Addr, epoch)
	return epoch, nil
}

// FragmentAnnounceInfo describes the spilled fragment m served at addr:
// the identity a registry vets an announcement by.
func FragmentAnnounceInfo(m *store.MappedGraph, addr string) (AnnounceInfo, error) {
	fi, has := m.Fragment()
	if !has {
		return AnnounceInfo{}, fmt.Errorf("remote: snapshot carries no fragment metadata (not a frag-N.gfds spill file?)")
	}
	return AnnounceInfo{
		Worker:      fi.Worker,
		Addr:        addr,
		NodeLo:      fi.NodeLo,
		NodeHi:      fi.NodeHi,
		NumEdges:    m.NumEdges(),
		Fingerprint: Fingerprint(m),
	}, nil
}

// Announce dials a coordinator's registry endpoint and announces a
// fragment server, retrying with the usual capped jittered backoff —
// fragment servers routinely start before the coordinator's registry is
// listening. Returns the registry epoch the announcement created. A
// registry-refused announcement (wrong fragment, stale epoch) is fatal
// immediately; transport failures retry until opts.Backoff.Attempts run
// out or ctx ends.
func Announce(ctx context.Context, registryAddr string, info AnnounceInfo, opts Options) (uint64, error) {
	opts = opts.withDefaults()
	seed := opts.Seed
	if seed == 0 {
		seed = int64(frameSum(0, 0, 0, []byte(registryAddr))) + 1
	}
	rng := rand.New(rand.NewSource(seed))
	var lastErr error
	for a := 0; a < opts.Backoff.Attempts; a++ {
		if a > 0 {
			if err := opts.Clock.Sleep(ctx, opts.Backoff.Delay(a-1, rng)); err != nil {
				return 0, err
			}
		}
		epoch, err := announceOnce(ctx, registryAddr, info, opts)
		if err == nil {
			return epoch, nil
		}
		if _, fatal := err.(*fatalError); fatal {
			return 0, err
		}
		if ctx.Err() != nil {
			return 0, err
		}
		lastErr = err
	}
	return 0, fmt.Errorf("remote: announce to %s: %d attempts exhausted: %w", registryAddr, opts.Backoff.Attempts, lastErr)
}

// announceOnce performs one dial + announce round trip.
func announceOnce(ctx context.Context, registryAddr string, info AnnounceInfo, opts Options) (uint64, error) {
	dctx, cancel := context.WithTimeout(ctx, opts.DialTimeout)
	defer cancel()
	var c net.Conn
	var err error
	if opts.Dialer != nil {
		c, err = opts.Dialer(dctx, registryAddr)
	} else {
		var d net.Dialer
		c, err = d.DialContext(dctx, "tcp", registryAddr)
	}
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(opts.CallTimeout)); err != nil {
		return 0, err
	}
	if _, err := writeFrame(c, msgAnnounce, 1, encodeAnnounce(info)); err != nil {
		return 0, err
	}
	typ, _, payload, _, err := readFrame(c)
	if err != nil {
		return 0, err
	}
	switch typ {
	case msgAnnounceOK:
		return decodeAnnounceOK(payload)
	case msgError:
		r := rbuf{b: payload}
		return 0, &fatalError{msg: fmt.Sprintf("remote: registry %s refused announcement: %s", registryAddr, r.str())}
	default:
		return 0, fmt.Errorf("remote: registry %s: unexpected response type %d", registryAddr, typ)
	}
}
