// Package netretry provides the shared retry policy of the network
// clients (kds, dstore, compactsvc): exponential backoff with full
// jitter, interruptible sleeps, and timeout classification; and the one
// JSON request/response client the KDS client and the compaction worker
// are built on.
//
// Backoff spreads reconnection attempts after a replica failure so a
// fleet of clients does not stampede the surviving replicas; jitter
// de-synchronizes clients that failed at the same instant.
package netretry

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"shield/internal/vfs"
)

// jitterMu guards jitterRNG; Delay is called concurrently by every network
// client in the process.
var (
	jitterMu  sync.Mutex
	jitterRNG = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// Seed re-seeds the jitter source so backoff delays replay deterministically.
// The simulation harness calls it once per run with the run's master seed;
// production code never needs it.
func Seed(seed int64) {
	jitterMu.Lock()
	jitterRNG = rand.New(rand.NewSource(seed))
	jitterMu.Unlock()
}

// Delay returns the sleep before retry number attempt (0-based), doubling
// from base up to max, jittered uniformly over [d/2, d]. A non-positive
// base disables backoff.
func Delay(attempt int, base, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	if attempt > 20 {
		attempt = 20 // avoid shift overflow; max caps the value anyway
	}
	d := base << uint(attempt)
	if max > 0 && d > max {
		d = max
	}
	half := d / 2
	jitterMu.Lock()
	j := jitterRNG.Int63n(int64(half) + 1)
	jitterMu.Unlock()
	return half + time.Duration(j)
}

// Sleep waits d or until done is closed, reporting false when interrupted.
// A nil done channel makes it a plain bounded sleep.
func Sleep(d time.Duration, done <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	if done == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// IsTimeout reports whether err is a network timeout (an expired
// deadline), as opposed to a refused or reset connection.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Permanent reports whether err is a permanent condition that retrying the
// same request cannot fix, so retry loops must surface it immediately
// instead of burning their attempt budget. Out-of-space is the canonical
// case: the bytes will not fit on the next attempt either, and the caller
// (the LSM write path) has its own degraded-mode handling for it.
func Permanent(err error) bool {
	return errors.Is(err, vfs.ErrNoSpace)
}
