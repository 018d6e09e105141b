package netretry

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"shield/internal/metrics"
)

// Policy is the retry policy the network clients (kds, dstore, compactsvc)
// share: how long one dial and one request attempt may take, and the
// jittered exponential backoff between attempts. A zero field takes the
// client's own default (WithDefaults).
type Policy struct {
	// DialTimeout bounds each connection attempt.
	DialTimeout time.Duration

	// RequestTimeout is the per-attempt deadline covering send and receive,
	// so a hung peer cannot wedge the caller.
	RequestTimeout time.Duration

	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// between attempts.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// WithDefaults returns p with every non-positive field taken from def.
func (p Policy) WithDefaults(def Policy) Policy {
	or := func(v, d time.Duration) time.Duration {
		if v > 0 {
			return v
		}
		return d
	}
	return Policy{
		DialTimeout:    or(p.DialTimeout, def.DialTimeout),
		RequestTimeout: or(p.RequestTimeout, def.RequestTimeout),
		BackoffBase:    or(p.BackoffBase, def.BackoffBase),
		BackoffMax:     or(p.BackoffMax, def.BackoffMax),
	}
}

// Backoff sleeps the jittered delay before retry number attempt (0-based),
// reporting false when done closes first.
func (p Policy) Backoff(attempt int, done <-chan struct{}) bool {
	return Sleep(Delay(attempt, p.BackoffBase, p.BackoffMax), done)
}

// ErrClosed reports a call on a closed Client, or one that Close interrupted.
var ErrClosed = errors.New("netretry: client closed")

// ErrExhausted reports a call whose every attempt failed in transport: no
// endpoint was reachable, or none answered within the deadline.
var ErrExhausted = errors.New("netretry: attempts exhausted")

// Client is the request/response client of the control-plane services (the
// KDS client, the compaction worker): newline-delimited JSON over one
// connection, dialed on demand to the group's endpoints in failover order.
// Every attempt carries a deadline; any error drops the connection, charges
// its endpoint and rotates the preference off it, and the next attempt backs
// off and redials. Calls are serialized. Close closes the live connection
// without waiting for a call in flight, which then fails with ErrClosed.
type Client struct {
	group      *Group
	policy     Policy
	attempts   int
	maxMessage int
	done       chan struct{}

	reqMu sync.Mutex // serializes calls on the shared connection

	mu     sync.Mutex // guards the connection state below
	conn   net.Conn
	wire   *JSONConn
	ep     *Endpoint // endpoint the live connection is dialed to
	closed bool
}

// NewClient returns a client over addrs that makes up to attempts transport
// attempts per call; no reply may exceed maxMessage bytes. p must carry its
// defaults already.
func NewClient(p Policy, attempts, maxMessage int, addrs ...string) *Client {
	return &Client{
		group:      NewGroup(p, addrs...),
		policy:     p,
		attempts:   attempts,
		maxMessage: maxMessage,
		done:       make(chan struct{}),
	}
}

// Close closes the live connection, which fails the call blocked on it, and
// makes every later call fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.done)
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close() //shield:nolockio teardown must hold the state lock so a racing connect cannot resurrect the conn; Close does not block
	c.conn = nil
	return err
}

// connect returns the live connection, dialing the group's endpoints in
// failover order when there is none.
func (c *Client) connect() (net.Conn, *JSONConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if c.conn != nil {
		conn, wire := c.conn, c.wire
		c.mu.Unlock()
		return conn, wire, nil
	}
	c.mu.Unlock()

	lastErr := errors.New("no addresses configured")
	for _, ep := range c.group.Sequence() {
		conn, err := net.DialTimeout("tcp", ep.Addr(), c.policy.DialTimeout)
		if err != nil {
			ep.Failure()
			lastErr = fmt.Errorf("dial %s: %w", ep.Addr(), err)
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return nil, nil, ErrClosed
		}
		ep.Success()
		c.group.Promote(ep)
		c.conn, c.wire, c.ep = conn, NewJSONConn(conn, c.maxMessage), ep
		wire := c.wire
		c.mu.Unlock()
		return conn, wire, nil
	}
	return nil, nil, lastErr
}

// drop discards a failed connection and, unless Close already took it,
// charges the failure to its endpoint and rotates the group preference so
// the next dial tries a different one first.
func (c *Client) drop(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	var ep *Endpoint
	if c.conn == conn {
		c.conn = nil
		ep, c.ep = c.ep, nil
	}
	c.mu.Unlock()
	if ep != nil {
		ep.Failure()
		c.group.Advance(ep)
	}
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Call sends req and decodes the reply into resp, re-sending req on any
// transport error, so every request sent through it must be idempotent. It
// fails with ErrClosed once the client is closed and with ErrExhausted when
// every attempt failed.
//
//shield:nolockio reqMu is the request queue: serializing I/O over the shared connection is its whole job, and Close does not take it
func (c *Client) Call(req, resp any) error {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	var lastErr error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			metrics.Net.Retries.Add(1)
			if !c.policy.Backoff(attempt-1, c.done) {
				return ErrClosed
			}
		}
		conn, wire, err := c.connect()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return err
			}
			lastErr = err // nothing was sent
			continue
		}
		conn.SetDeadline(time.Now().Add(c.policy.RequestTimeout)) //nolint:errcheck // a dead socket fails the I/O that follows
		if err = wire.Send(req); err == nil {
			if err = wire.Recv(resp); err == nil {
				conn.SetDeadline(time.Time{}) //nolint:errcheck
				return nil
			}
		}
		if IsTimeout(err) {
			metrics.Net.Timeouts.Add(1)
		}
		c.drop(conn)
		lastErr = err
	}
	if c.isClosed() {
		return ErrClosed
	}
	return fmt.Errorf("%w after %d attempts: %v", ErrExhausted, c.attempts, lastErr)
}
