package netretry

import "time"

// Deadline tracks one lazily re-armed connection deadline. Setting a
// deadline re-arms a runtime timer, which costs more than parsing a command
// or a frame header, so a connection sets one only when the one in force has
// less than 7/8 of the timeout left: every wait is then bounded by something
// in [7/8·timeout, timeout] instead of by exactly timeout.
type Deadline struct{ at time.Time }

// stale reports whether the deadline must be set to now+timeout, and
// records that it was.
func (d *Deadline) stale(now time.Time, timeout time.Duration) bool {
	if left := d.at.Sub(now); left > timeout-timeout/8 && left <= timeout {
		return false
	}
	d.at = now.Add(timeout)
	return true
}

// Arm sets a deadline of timeout from now through set (a connection's
// SetDeadline, SetReadDeadline or SetWriteDeadline) if the one in force is
// stale.
func (d *Deadline) Arm(timeout time.Duration, set func(time.Time) error) {
	if now := time.Now(); d.stale(now, timeout) {
		set(now.Add(timeout)) //nolint:errcheck // a dead socket fails the I/O that follows
	}
}
