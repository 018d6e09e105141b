package resp

import (
	"fmt"
	"net"
	"time"

	"shield/internal/netretry"
)

// Client is a pipelined RESP client: queue commands with Send, push them
// with Flush, then collect replies in order with Recv. Do is the one-shot
// convenience. A Client is not safe for concurrent use; benchmarks open one
// per goroutine.
type Client struct {
	conn net.Conn
	r    *Reader
	w    *Writer

	// Timeout, when nonzero, bounds each Flush and each Recv. The socket
	// deadlines behind it are re-armed lazily (see netretry.Deadline), and
	// the read one only when a Recv has to wait for the network at all.
	Timeout time.Duration

	readBy, writeBy netretry.Deadline
	recvArmed       bool // the current Recv has looked at its deadline
}

// timedConn is the connection as the Client's Reader and Writer see it:
// whatever makes them touch the socket — a Recv that finds nothing buffered,
// a Flush, a Send that outgrows the buffer — does so under a deadline.
type timedConn struct{ c *Client }

func (t timedConn) Read(p []byte) (int, error) {
	if c := t.c; c.Timeout > 0 && !c.recvArmed {
		c.recvArmed = true // once per Recv, or a trickling peer could stretch one forever
		c.readBy.Arm(c.Timeout, c.conn.SetReadDeadline)
	}
	return t.c.conn.Read(p)
}

func (t timedConn) Write(p []byte) (int, error) {
	if c := t.c; c.Timeout > 0 {
		c.writeBy.Arm(c.Timeout, c.conn.SetWriteDeadline)
	}
	return t.c.conn.Write(p)
}

// Dial connects to a RESP server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("resp: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn}
	c.r, c.w = NewReader(timedConn{c}), NewWriter(timedConn{c})
	return c
}

// Send queues one command without flushing.
func (c *Client) Send(args ...[]byte) error {
	return c.w.Command(args...)
}

// SendStrings is Send for string arguments.
func (c *Client) SendStrings(args ...string) error {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	return c.Send(bs...)
}

// Flush pushes every queued command to the server.
func (c *Client) Flush() error { return c.w.Flush() }

// Recv reads the next in-order reply.
func (c *Client) Recv() (Value, error) {
	c.recvArmed = false
	return c.r.ReadReply()
}

// Do sends one command, flushes, and returns its reply.
func (c *Client) Do(args ...string) (Value, error) {
	if err := c.SendStrings(args...); err != nil {
		return Value{}, err
	}
	if err := c.Flush(); err != nil {
		return Value{}, err
	}
	return c.Recv()
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
