package netretry

import (
	"testing"
	"time"
)

// A deadline is set again only once an eighth of it has been used up, so
// the bound in force is always within [7/8·T, T] — also after T changes.
func TestDeadlineStale(t *testing.T) {
	const T = 8 * time.Second
	var d Deadline
	t0 := time.Now()
	if !d.stale(t0, T) {
		t.Fatal("a fresh Deadline is not stale")
	}
	for _, c := range []struct {
		after   time.Duration
		timeout time.Duration
		stale   bool
	}{
		{0, T, false},
		{T/8 - time.Millisecond, T, false},
		{T / 8, T, true}, // re-armed at t0+T/8
		{T/8 + time.Second - time.Millisecond, T, false},
		{T/8 + time.Second, T / 8, true},                // shorter timeout: the old deadline is too far out
		{T/8 + time.Second + time.Millisecond, T, true}, // longer timeout: too little left
		{3 * T, T, true}, // long idle: already expired
	} {
		if got := d.stale(t0.Add(c.after), c.timeout); got != c.stale {
			t.Errorf("at +%v with timeout %v: stale = %v, want %v", c.after, c.timeout, got, c.stale)
		}
	}
}
