package netretry

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
)

// Listener is the accepting side the wire services (kds, dstore, compactsvc)
// share: it accepts TCP connections, runs one serve call per connection, and
// on Close disconnects them all and waits.
type Listener struct {
	ln    net.Listener
	serve func(net.Conn)

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0"). Each connection is
// handed to serve on its own goroutine and closed when serve returns.
func Listen(addr string, serve func(net.Conn)) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{ln: ln, serve: serve, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listen address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Close stops accepting, closes every open connection (which fails the read
// its serve call is blocked in) and returns once all serve calls have.
// Callers must not hold a lock a serve call may take.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.ln.Close()
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1) // under mu, so Close's Wait cannot miss it
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			l.serve(conn)
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
			conn.Close()
		}()
	}
}

// ErrMessageTooLarge reports an incoming message that ran past its size cap;
// the connection cannot be resynchronized and must be closed.
var ErrMessageTooLarge = errors.New("netretry: message exceeds the size cap")

// JSONConn exchanges newline-delimited JSON messages over a connection and
// caps what one incoming message may consume: the peer's bytes are buffered
// until a value is complete, so without a cap one endless string makes the
// receiver allocate until it dies. The cap assumes the protocols' strict
// request/response alternation (no read-ahead into a following message).
type JSONConn struct {
	enc *json.Encoder
	dec *json.Decoder
	in  cappedReader
	max int64
}

// NewJSONConn wraps conn; no incoming message may exceed maxMessage bytes.
func NewJSONConn(conn io.ReadWriter, maxMessage int) *JSONConn {
	c := &JSONConn{enc: json.NewEncoder(conn), max: int64(maxMessage)}
	c.in.R = conn
	c.dec = json.NewDecoder(&c.in)
	return c
}

// Send writes one message.
func (c *JSONConn) Send(v any) error { return c.enc.Encode(v) }

// Recv reads one message into v, failing with ErrMessageTooLarge once it has
// consumed the cap without completing.
func (c *JSONConn) Recv(v any) error {
	c.in.N = c.max
	return c.dec.Decode(v)
}

// cappedReader is an io.LimitedReader that fails typed, not with io.EOF, once
// its allowance is spent.
type cappedReader struct{ io.LimitedReader }

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.N <= 0 {
		return 0, ErrMessageTooLarge
	}
	return c.LimitedReader.Read(p)
}
