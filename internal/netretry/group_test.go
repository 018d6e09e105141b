package netretry

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"shield/internal/metrics"
)

func TestTransportClassification(t *testing.T) {
	base := errors.New("connection reset")
	te := Transport(base)
	if !IsTransport(te) {
		t.Fatal("Transport(err) not classified as transport")
	}
	if !errors.Is(te, base) {
		t.Fatal("Transport(err) lost the underlying cause")
	}
	if Transport(te) != te {
		t.Fatal("double-wrapping should be a no-op")
	}
	if IsTransport(base) {
		t.Fatal("plain error misclassified as transport")
	}
	if Transport(nil) != nil {
		t.Fatal("Transport(nil) must stay nil")
	}
	wrapped := fmt.Errorf("dstore: %w", te)
	if !IsTransport(wrapped) {
		t.Fatal("classification must survive further wrapping")
	}
}

func TestEndpointHealthTransitions(t *testing.T) {
	g := NewGroup(Policy{BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}, "a:1", "b:1")
	ep := g.Endpoints()[0]
	if ep.Health() != HealthUp {
		t.Fatalf("fresh endpoint health = %v, want up", ep.Health())
	}
	if h := ep.Failure(); h != HealthSuspect {
		t.Fatalf("after 1 failure health = %v, want suspect", h)
	}
	ep.Failure()
	if h := ep.Failure(); h != HealthDown {
		t.Fatalf("after %d failures health = %v, want down", downAfter, h)
	}
	ep.Success()
	if ep.Health() != HealthUp {
		t.Fatalf("success did not restore health: %v", ep.Health())
	}
	if eps := g.Endpoints(); len(eps) != 2 || eps[0].Addr() != "a:1" || eps[0].Health() != HealthUp {
		t.Fatalf("unexpected endpoints after recovery: %v", eps)
	}
}

func TestSequenceFailoverOrder(t *testing.T) {
	g := NewGroup(Policy{BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}, "a:1", "b:1", "c:1")
	eps := g.Endpoints()

	seq := g.Sequence()
	if seq[0].Addr() != "a:1" || seq[1].Addr() != "b:1" || seq[2].Addr() != "c:1" {
		t.Fatalf("initial order wrong: %v %v %v", seq[0].Addr(), seq[1].Addr(), seq[2].Addr())
	}

	// Advancing away from a failed preferred endpoint rotates the lead.
	g.Advance(eps[0])
	seq = g.Sequence()
	if seq[0].Addr() != "b:1" {
		t.Fatalf("after Advance lead = %s, want b:1", seq[0].Addr())
	}

	// A down endpoint inside its retry gate sorts last.
	for i := 0; i < downAfter; i++ {
		eps[1].Failure()
	}
	seq = g.Sequence()
	if seq[len(seq)-1].Addr() != "b:1" {
		t.Fatalf("gated-down endpoint not last: %v", seq[len(seq)-1].Addr())
	}
	// After the gate expires it is offered again (as a probe).
	time.Sleep(6 * time.Millisecond)
	found := false
	for _, ep := range g.Sequence() {
		if ep.Addr() == "b:1" {
			found = true
		}
	}
	if !found {
		t.Fatal("down endpoint vanished from the sequence")
	}
}

func TestPromoteCountsFailovers(t *testing.T) {
	metrics.Net.Reset()
	g := NewGroup(Policy{BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}, "a:1", "b:1")
	eps := g.Endpoints()
	g.Promote(eps[0]) // already preferred: no failover
	if n := metrics.Net.Snapshot().Failovers; n != 0 {
		t.Fatalf("promote of current endpoint counted a failover (%d)", n)
	}
	g.Promote(eps[1])
	snap := metrics.Net.Snapshot()
	if snap.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", snap.Failovers)
	}
	if es := snap.Endpoints["b:1"]; es.Failovers != 1 {
		t.Fatalf("per-endpoint failovers = %+v, want 1 on b:1", es)
	}
	metrics.Net.Reset()
}
