package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestHealthTransitionTable walks the full healthy → suspect → dead →
// rejoin ladder through explicit observations — the clock-free design
// means the table needs no timers at all.
func TestHealthTransitionTable(t *testing.T) {
	h := NewHealth(HealthConfig{SuspectMisses: 1, DeadMisses: 3})
	if got := h.State(); got != Healthy {
		t.Fatalf("fresh member: state %v, want healthy", got)
	}
	if got := h.ObserveRTT(time.Millisecond); got != Healthy {
		t.Fatalf("after a clean RTT: %v, want healthy", got)
	}
	if got := h.ObserveMiss(); got != Suspect {
		t.Fatalf("after 1 miss (SuspectMisses=1): %v, want suspect", got)
	}
	if got := h.ObserveRTT(time.Millisecond); got != Healthy {
		t.Fatalf("heartbeat after a miss: %v, want healthy (misses reset)", got)
	}
	// Two misses are not enough to die; the reset above must have cleared
	// the earlier one.
	h.ObserveMiss()
	if got := h.ObserveMiss(); got != Suspect {
		t.Fatalf("after 2 consecutive misses: %v, want suspect", got)
	}
	if got := h.ObserveMiss(); got != Dead {
		t.Fatalf("after 3 consecutive misses (DeadMisses=3): %v, want dead", got)
	}
	// Dead is latched: neither a heartbeat nor a miss revives it.
	if got := h.ObserveRTT(time.Millisecond); got != Dead {
		t.Fatalf("heartbeat while dead: %v, want dead (latched)", got)
	}
	if got := h.ObserveMiss(); got != Dead {
		t.Fatalf("miss while dead: %v, want dead", got)
	}
	// A validated rejoin resets everything.
	h.ObserveRejoin()
	if got := h.State(); got != Healthy {
		t.Fatalf("after rejoin: %v, want healthy", got)
	}
	if got := h.ObserveMiss(); got != Suspect {
		t.Fatalf("first miss after rejoin: %v, want suspect (counters reset)", got)
	}
}

// TestHealthRTTSpike drives the slow-but-alive path: a round trip far
// beyond the member's own rolling quantile marks it suspect even though
// every heartbeat arrives.
func TestHealthRTTSpike(t *testing.T) {
	h := NewHealth(HealthConfig{MinRTTSamples: 8, RTTWindow: 16, RTTQuantile: 0.9, RTTFactor: 4})
	for i := 0; i < 8; i++ {
		if got := h.ObserveRTT(time.Millisecond); got != Healthy {
			t.Fatalf("sample %d: %v, want healthy", i, got)
		}
	}
	if got := h.ObserveRTT(100 * time.Millisecond); got != Suspect {
		t.Fatalf("100ms spike over a 1ms baseline: %v, want suspect", got)
	}
	// Back to baseline: healthy again. The spike is in the window now,
	// but the quantile is robust to a single outlier.
	if got := h.ObserveRTT(time.Millisecond); got != Healthy {
		t.Fatalf("clean RTT after the spike: %v, want healthy", got)
	}
	// Before MinRTTSamples the spike rule must not fire: a fresh member's
	// first slow heartbeat is not evidence.
	h2 := NewHealth(HealthConfig{MinRTTSamples: 8})
	h2.ObserveRTT(time.Millisecond)
	if got := h2.ObserveRTT(time.Second); got != Healthy {
		t.Fatalf("spike with 1 sample of history: %v, want healthy (below MinRTTSamples)", got)
	}
}

func TestRegistryAnnounceEpochs(t *testing.T) {
	r := NewRegistry()
	if r.Epoch() != 0 || r.Size() != 0 {
		t.Fatalf("fresh registry: epoch %d size %d, want 0/0", r.Epoch(), r.Size())
	}
	e1, err := r.Announce(1, "127.0.0.1:7701", 0)
	if err != nil || e1 != 1 {
		t.Fatalf("first announce: epoch %d err %v, want 1/nil", e1, err)
	}
	e2, err := r.Announce(2, "127.0.0.1:7702", 0)
	if err != nil || e2 != 2 {
		t.Fatalf("second announce: epoch %d err %v, want 2/nil", e2, err)
	}
	if m, ok := r.Member(1); !ok || m.Addr != "127.0.0.1:7701" || m.Joined != 1 {
		t.Fatalf("member 1 = %+v ok=%v", m, ok)
	}
	// A replacement for the same slot bumps the epoch and swaps the addr.
	e3, err := r.Announce(1, "127.0.0.1:7801", e2)
	if err != nil || e3 != 3 {
		t.Fatalf("replacement announce: epoch %d err %v", e3, err)
	}
	if m, _ := r.Member(1); m.Addr != "127.0.0.1:7801" {
		t.Fatalf("slot 1 not replaced: %+v", m)
	}
	if r.Size() != 2 {
		t.Fatalf("size %d, want 2", r.Size())
	}
	// An announce claiming a future epoch belongs to a different registry
	// incarnation and must be refused.
	if _, err := r.Announce(3, "127.0.0.1:7703", e3+10); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("future-epoch announce: err %v, want ErrStaleEpoch", err)
	}
}

func TestRegistryStaleLeave(t *testing.T) {
	r := NewRegistry()
	r.Announce(1, "a", 0)
	snapEpoch := r.Epoch()
	// The map moves on (member re-announces) before the leave lands: the
	// leave was decided about a member that no longer exists.
	r.Announce(1, "b", snapEpoch)
	if _, err := r.Leave(1, snapEpoch); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale leave: err %v, want ErrStaleEpoch", err)
	}
	if _, ok := r.Member(1); !ok {
		t.Fatal("stale leave removed the re-announced member")
	}
	// A current-epoch leave works and bumps the epoch.
	e, err := r.Leave(1, r.Epoch())
	if err != nil || r.Size() != 0 {
		t.Fatalf("leave: epoch %d err %v size %d", e, err, r.Size())
	}
	if _, err := r.Leave(1, r.Epoch()); err == nil {
		t.Fatal("leaving a non-member succeeded")
	}
}

func TestRegistryWait(t *testing.T) {
	r := NewRegistry()
	done := make(chan error, 1)
	go func() { done <- r.Wait(context.Background(), 2) }()
	r.Announce(1, "a", 0)
	select {
	case err := <-done:
		t.Fatalf("Wait(2) returned after 1 member: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.Announce(2, "b", 0)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait(2) did not return after the second member announced")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := r.Wait(ctx, 3); err == nil {
		t.Fatal("Wait(3) with 2 members did not time out")
	}
}
