package netretry

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"shield/internal/metrics"
)

// TransportError marks a failure of the transport itself — the connection
// died, the dial was refused, the deadline expired — as opposed to an
// application-level error the peer returned over a healthy connection. The
// distinction drives replica health: a transport failure demotes the
// endpoint (the peer may be gone, and the request may or may not have been
// applied), while an application error proves the peer is alive and must
// never trigger failover.
type TransportError struct{ Err error }

// Error implements error.
func (e *TransportError) Error() string { return fmt.Sprintf("transport: %v", e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *TransportError) Unwrap() error { return e.Err }

// Transport wraps err as a TransportError (nil stays nil). Idempotent:
// wrapping an error that already carries the class returns it unchanged.
func Transport(err error) error {
	if err == nil {
		return nil
	}
	if IsTransport(err) {
		return err
	}
	return &TransportError{Err: err}
}

// IsTransport reports whether err carries the transport-failure class.
func IsTransport(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// Health is an endpoint's availability class, as judged from the caller's
// own traffic: Up endpoints serve requests normally, Suspect endpoints have
// seen a recent transport failure (still tried, but no longer preferred),
// and Down endpoints failed repeatedly and are only re-tried after their
// backoff window expires.
type Health int

// Health states, ordered by decreasing availability.
const (
	HealthUp Health = iota
	HealthSuspect
	HealthDown
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case HealthUp:
		return "up"
	case HealthSuspect:
		return "suspect"
	case HealthDown:
		return "down"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// downAfter is the consecutive-transport-failure count that demotes an
// endpoint from suspect to down.
const downAfter = 3

// Endpoint is one member of a Group: an address plus the health and backoff
// state the group maintains for it. All methods are safe for concurrent use.
type Endpoint struct {
	addr string
	g    *Group

	mu      sync.Mutex
	health  Health
	fails   int       // consecutive transport failures
	retryAt time.Time // down endpoints are skipped until this instant
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() string { return e.addr }

// Health returns the endpoint's current health class.
func (e *Endpoint) Health() Health {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.health
}

// Success records a request that reached the endpoint and got an answer
// (application errors count: the peer is alive). It resets the failure
// streak and promotes the endpoint to Up.
func (e *Endpoint) Success() {
	e.mu.Lock()
	e.fails = 0
	e.health = HealthUp
	e.retryAt = time.Time{}
	e.mu.Unlock()
}

// Failure records a transport failure against the endpoint and returns its
// new health: one failure makes it Suspect, downAfter consecutive failures
// make it Down with an exponentially growing retry gate (the group's
// backoff policy, capped at BackoffMax).
func (e *Endpoint) Failure() Health {
	e.mu.Lock()
	e.fails++
	if e.fails >= downAfter {
		e.health = HealthDown
		e.retryAt = time.Now().Add(Delay(e.fails-downAfter, e.g.backoff.BackoffBase, e.g.backoff.BackoffMax))
	} else {
		e.health = HealthSuspect
	}
	h := e.health
	e.mu.Unlock()
	metrics.Net.Endpoint(e.addr).Errors.Add(1)
	return h
}

// usable reports whether the endpoint should be offered to callers right
// now: anything not Down, plus Down endpoints whose retry gate has expired
// (the probe that decides whether they recovered).
func (e *Endpoint) usable() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.health != HealthDown || !time.Now().Before(e.retryAt)
}

// Group tracks a set of peer endpoints with per-endpoint health and backoff
// state, and hands out endpoints in failover order: the current preferred
// endpoint first, then the others round-robin, Down endpoints last and only
// once their retry gate expires. It orders the dials of Client (the KDS
// client's replica failover) and the reads of the dstore replica set.
type Group struct {
	backoff Policy

	mu  sync.Mutex
	eps []*Endpoint
	cur int // index of the preferred (last-good) endpoint
}

// NewGroup builds a group over addrs. The policy's backoff shapes the
// per-endpoint down-state retry gate.
func NewGroup(p Policy, addrs ...string) *Group {
	g := &Group{backoff: p}
	for _, a := range addrs {
		g.eps = append(g.eps, &Endpoint{addr: a, g: g})
	}
	return g
}

// Endpoints returns the members in configuration order.
func (g *Group) Endpoints() []*Endpoint {
	return append([]*Endpoint(nil), g.eps...)
}

// Sequence returns the endpoints in failover order: the preferred endpoint
// first, the rest rotating after it, with endpoints whose retry gate has
// not expired moved to the back (they are still returned — a caller with no
// better option may try them rather than fail outright).
func (g *Group) Sequence() []*Endpoint {
	g.mu.Lock()
	cur := g.cur
	g.mu.Unlock()
	n := len(g.eps)
	ordered := make([]*Endpoint, 0, n)
	var gated []*Endpoint
	for i := 0; i < n; i++ {
		ep := g.eps[(cur+i)%n]
		if ep.usable() {
			ordered = append(ordered, ep)
		} else {
			gated = append(gated, ep)
		}
	}
	return append(ordered, gated...)
}

// Promote marks ep as the preferred endpoint for subsequent Sequence calls,
// recording a failover (in metrics and the endpoint's counters) when the
// preference actually moved.
func (g *Group) Promote(ep *Endpoint) {
	g.mu.Lock()
	moved := false
	for i, e := range g.eps {
		if e == ep {
			moved = i != g.cur
			g.cur = i
			break
		}
	}
	g.mu.Unlock()
	if moved {
		metrics.Net.Failovers.Add(1)
		metrics.Net.Endpoint(ep.addr).Failovers.Add(1)
	}
}

// Advance rotates the preference away from ep (normally the endpoint that
// just failed), so the next Sequence leads with a different member.
func (g *Group) Advance(ep *Endpoint) {
	g.mu.Lock()
	if len(g.eps) > 0 && g.eps[g.cur] == ep {
		g.cur = (g.cur + 1) % len(g.eps)
	}
	g.mu.Unlock()
}
