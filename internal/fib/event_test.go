package fib

import (
	"net/netip"
	"testing"
	"time"

	"vns/internal/telemetry"
)

// These tests pin the event-ID handoff across the rib→fib boundary: the
// routing side stamps an invalidation with the active convergence
// event's ID, the publisher carries it to the publish, and the
// PublishObserver reports the compile back to the span layer — which
// attributes it only if that event is still in flight. The publisher
// itself stays telemetry-free; the observer func is the entire contract.

func eventPublisher(obs func(event uint64, d time.Duration)) (*Publisher, map[netip.Prefix]NextHop) {
	routes := map[netip.Prefix]NextHop{mustPrefix("10.0.0.0/8"): nh(1)}
	p := NewPublisher(Config{
		Resolve: func(_ int, pfx netip.Prefix) (NextHop, bool) {
			h, ok := routes[pfx]
			return h, ok
		},
		PublishObserver: obs,
	})
	p.ResolveAll([]netip.Prefix{mustPrefix("10.0.0.0/8")})
	return p, routes
}

func TestPublisherEventIDReachesPublishObserver(t *testing.T) {
	var gotEvent uint64
	var calls int
	p, routes := eventPublisher(func(event uint64, d time.Duration) {
		calls++
		gotEvent = event
	})
	// The initial ResolveAll is a publish no event caused.
	if calls != 1 || gotEvent != 0 {
		t.Fatalf("after ResolveAll: calls=%d event=%d, want 1, 0", calls, gotEvent)
	}

	routes[mustPrefix("10.0.0.0/8")] = nh(2)
	p.InvalidateEvent(42, mustPrefix("10.0.0.0/8"))
	if calls != 2 {
		t.Fatalf("PublishObserver calls = %d, want 2", calls)
	}
	if gotEvent != 42 {
		t.Errorf("observed event = %d, want 42", gotEvent)
	}

	// An unstamped invalidation publishes with event 0, and the previous
	// stamp must not leak into it; an invalidation that changes nothing
	// is no publish and is not observed.
	routes[mustPrefix("10.0.0.0/8")] = nh(3)
	p.InvalidateEvent(0, mustPrefix("10.0.0.0/8"))
	if calls != 3 || gotEvent != 0 {
		t.Errorf("after an event-0 invalidation: calls=%d event=%d, want 3, 0", calls, gotEvent)
	}
	p.InvalidateEvent(7, mustPrefix("10.0.0.0/8"))
	if calls != 3 {
		t.Errorf("a skipped invalidation was observed: calls=%d, want 3", calls)
	}
}

// TestPublisherEventRoundTrip wires a real Convergence to the observer
// — the deployment topology — and checks the span layer ends up with
// the compile attributed to the right event. (The stale case, a
// debounced pass that lands after its event finished, is
// vns.TestForwardingStaleEventNotAttributed.)
func TestPublisherEventRoundTrip(t *testing.T) {
	reg := telemetry.New()
	clock := 0.0
	conv := telemetry.NewConvergence(reg, nil, func() float64 { return clock })
	p, routes := eventPublisher(func(event uint64, d time.Duration) {
		conv.ObserveCompileFor(event, 0.002)
	})

	ev := conv.Begin(telemetry.ConvUpdate)
	routes[mustPrefix("10.0.0.0/8")] = nh(2)
	p.InvalidateEvent(conv.ActiveID(), mustPrefix("10.0.0.0/8"))
	_, stageSum := ev.Finish()
	if stageSum != 0.002 {
		t.Errorf("attributed stage sum = %v, want the 2ms compile", stageSum)
	}
	if got := conv.StageCount(telemetry.StageFIBCompile); got != 1 {
		t.Fatalf("fib_compile observations = %d, want 1", got)
	}
}
