package dstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"shield/internal/metrics"
	"shield/internal/netretry"
	"shield/internal/vfs"
)

// ErrClosed reports that the client has been closed.
var ErrClosed = errors.New("dstore: client closed")

// Config tunes the client's pool size and fault-tolerance behavior. The
// zero value selects the defaults: 1 connection, dial 1s, request 10s,
// backoff 5ms to 250ms, and 3 attempts.
type Config struct {
	// Conns is the connection-pool size.
	Conns int

	// Policy's RequestTimeout must cover packet serialization time: remote
	// writes ride the emulated link's bandwidth cap. It is re-armed lazily
	// (netretry.Deadline): an attempt is bounded by something in
	// [7/8·RequestTimeout, RequestTimeout].
	netretry.Policy

	// MaxAttempts is the total number of transport attempts per request.
	MaxAttempts int
}

func (cfg Config) withDefaults() Config {
	if cfg.Conns < 1 {
		cfg.Conns = 1
	}
	cfg.Policy = cfg.Policy.WithDefaults(netretry.Policy{
		DialTimeout:    time.Second,
		RequestTimeout: 10 * time.Second,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     250 * time.Millisecond,
	})
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	return cfg
}

// Client is a vfs.FS backed by a remote storage node. It is safe for
// concurrent use; requests multiplex over a small connection pool so
// compaction traffic does not head-of-line-block foreground reads.
//
// Fault tolerance: every request carries a deadline; a connection that
// sees a transport error or a malformed frame is discarded (its stream
// position is unknown) and its pool slot redials lazily; idempotent requests
// retry with jittered backoff. Writes are made idempotent by per-handle
// sequence numbers the server deduplicates, so a retried packet whose
// response was lost is not appended twice.
type Client struct {
	addr string
	cfg  Config

	// pool holds connection slots. A slot with a nil conn marks a slot
	// whose connection was discarded; checkout redials it. The slot count
	// is constant, so checkout never blocks forever on a drained pool.
	pool chan *clientConn
	done chan struct{}

	mu     sync.Mutex
	live   map[*clientConn]struct{} // dialed conns, force-closed on Close
	closed bool
}

type clientConn struct {
	conn net.Conn
	fr   frameReader
	fw   frameWriter
	by   netretry.Deadline
	out  []byte // request head and meta
}

// exchange sends req and reads the reply into resp, a read's data into dst.
func (cc *clientConn) exchange(req *Request, resp *Response, dst []byte, timeout time.Duration) error {
	cc.by.Arm(timeout, cc.conn.SetDeadline)
	cc.out = appendRequest(cc.out[:0], req)
	if err := cc.fw.send(cc.out, req.Data); err != nil {
		return err
	}
	return readResponse(&cc.fr, resp, dst)
}

// Dial connects to a storage node with a pool of nConns connections
// (minimum 1) and default fault-tolerance settings.
func Dial(addr string, nConns int) (*Client, error) {
	return DialConfig(addr, Config{Conns: nConns})
}

// DialConfig is Dial with explicit retry/timeout settings.
func DialConfig(addr string, cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	c := &Client{
		addr: addr,
		cfg:  cfg,
		pool: make(chan *clientConn, cfg.Conns),
		done: make(chan struct{}),
		live: make(map[*clientConn]struct{}),
	}
	for i := 0; i < cfg.Conns; i++ {
		cc, err := c.dial()
		if err != nil {
			c.Close()
			return nil, err
		}
		c.pool <- cc
	}
	return c, nil
}

func (c *Client) dial() (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dstore: dial %s: %w", c.addr, err)
	}
	cc := &clientConn{conn: conn, fr: frameReader{r: bufio.NewReader(conn)}, fw: frameWriter{conn: conn}}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	c.live[cc] = struct{}{}
	c.mu.Unlock()
	return cc, nil
}

// Close releases all connections and unblocks goroutines waiting on the
// pool or retrying: they fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	for cc := range c.live {
		cc.conn.Close()
	}
	c.live = make(map[*clientConn]struct{})
	c.mu.Unlock()

	// Drain idle slots so their conns are closed too (checked-out conns
	// were force-closed above and will be dropped on return).
	for {
		select {
		case cc := <-c.pool:
			if cc.conn != nil {
				cc.conn.Close()
			}
		default:
			return nil
		}
	}
}

// checkout takes a pool slot, redialing it if its connection was
// discarded. It respects Close: a waiter blocked on an empty pool returns
// ErrClosed instead of hanging forever.
func (c *Client) checkout() (*clientConn, error) {
	select {
	case cc := <-c.pool:
		if cc.conn == nil {
			ncc, err := c.dial()
			if err != nil {
				c.putBack(cc) // keep the slot so later requests can retry the dial
				return nil, err
			}
			metrics.Net.Redials.Add(1)
			return ncc, nil
		}
		return cc, nil
	case <-c.done:
		return nil, ErrClosed
	}
}

// putBack returns a slot to the pool (or closes its conn after Close).
func (c *Client) putBack(cc *clientConn) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		if cc.conn != nil {
			cc.conn.Close()
		}
		return
	}
	c.pool <- cc
}

// discard closes a connection that saw a transport error or a malformed
// frame — its stream may be desynced and would poison every later request —
// and returns an empty slot to the pool for a lazy redial.
func (c *Client) discard(cc *clientConn) {
	cc.conn.Close()
	c.mu.Lock()
	delete(c.live, cc)
	c.mu.Unlock()
	c.putBack(&clientConn{})
}

// retryable reports whether a request may be re-sent after a transport
// failure that could have delivered it. Reads, metadata ops, syncs, and
// closes are idempotent; writes are deduplicated server-side by sequence
// number; a Remove/Rename that was applied before its reply was lost
// answers ErrNotFound on the re-send, which roundTrip resolves through
// alreadyApplied — callers never see that case.
func retryable(req *Request) bool {
	return req.Op != OpWrite || req.Seq != 0
}

// alreadyApplied decides what a re-sent Remove or Rename that answered
// ErrNotFound means: an earlier attempt may have reached the node and been
// applied before its reply was lost, in which case the goal state already
// holds and the caller must see success. A removed file being absent is the
// goal; a rename is confirmed by the new name existing.
func (c *Client) alreadyApplied(req *Request) bool {
	switch req.Op {
	case OpRemove:
		return true
	case OpRename:
		_, err := c.Stat(req.Name2)
		return err == nil
	}
	return false
}

// roundTrip sends one request with deadlines, backoff, and redial.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	resp, err := c.roundTripInto(req, nil)
	return &resp, err
}

// roundTripInto is roundTrip with a read reply's data read straight into
// dst, which must be at least as long as the read asked for.
func (c *Client) roundTripInto(req *Request, dst []byte) (Response, error) {
	// A request no frame can carry fails here, before anything is sent.
	if len(req.Name) > maxStr || len(req.Name2) > maxStr || len(req.Data) > writePacketSize {
		return Response{}, fmt.Errorf("dstore: %v request does not fit a frame: %w", req.Op, netretry.ErrMessageTooLarge)
	}
	var lastErr error
	resent := false // an earlier attempt was sent and may have been applied
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			metrics.Net.Retries.Add(1)
			if !c.cfg.Backoff(attempt-1, c.done) {
				return Response{}, ErrClosed
			}
		}
		cc, err := c.checkout()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return Response{}, err
			}
			lastErr = err // dial failure: nothing sent, always retryable
			continue
		}
		var resp Response
		if err = cc.exchange(req, &resp, dst, c.cfg.RequestTimeout); err == nil {
			c.putBack(cc)
			if resp.Err != "" {
				err := mapRemoteError(resp.Err)
				if resent && errors.Is(err, vfs.ErrNotFound) && c.alreadyApplied(req) {
					return resp, nil
				}
				return resp, err
			}
			return resp, nil
		}
		resent = true
		if netretry.IsTimeout(err) {
			metrics.Net.Timeouts.Add(1)
		}
		c.discard(cc)
		lastErr = err
		if netretry.Permanent(err) {
			return Response{}, fmt.Errorf("dstore: %w (not retried: permanent)", err)
		}
		if !retryable(req) {
			return Response{}, netretry.Transport(fmt.Errorf("dstore: %w (not retried: non-idempotent)", err))
		}
	}
	// Exhausted attempts on dial/send/receive failures: the node itself is
	// unreachable or resetting. The transport class tells replica-set callers
	// this is a node-health event (demote, fail over) rather than an answer
	// from a live node, which must never trigger failover.
	return Response{}, netretry.Transport(fmt.Errorf("dstore: request failed after %d attempts: %w",
		c.cfg.MaxAttempts, lastErr))
}

// mapRemoteError restores vfs sentinel errors across the wire.
func mapRemoteError(msg string) error {
	switch {
	case strings.Contains(msg, vfs.ErrNotFound.Error()):
		return fmt.Errorf("%w (remote: %s)", vfs.ErrNotFound, msg)
	case strings.Contains(msg, vfs.ErrExist.Error()):
		return fmt.Errorf("%w (remote: %s)", vfs.ErrExist, msg)
	case strings.Contains(msg, vfs.ErrNoSpace.Error()):
		// The storage node is full. Restoring the sentinel lets the engine's
		// degraded-mode handling fire, and marks the error permanent so no
		// retry layer wastes attempts on it.
		return fmt.Errorf("%w (remote: %s)", vfs.ErrNoSpace, msg)
	case strings.Contains(msg, vfs.ErrInjected.Error()):
		// Injected faults model transient media errors on the node; restore
		// the sentinel so fault harnesses can classify them as retryable.
		return fmt.Errorf("%w (remote: %s)", vfs.ErrInjected, msg)
	default:
		return errors.New(msg)
	}
}

// writePacketSize is the packet of distributed-filesystem clients (HDFS's
// DFSOutputStream and DFSInputStream stream 64 KiB packets), in both
// directions. Writes: appends accumulate locally and ship in one RPC when
// the packet fills, on Sync, or on Close. Reads: a read that continues the
// previous one on its handle fetches a whole packet and the reads after it
// are served from it (remoteRandom). Without this, every small WAL append
// and every table block of a compaction input would pay a full network
// round trip — which no real DFS client does.
const writePacketSize = 64 << 10

// Create implements vfs.FS.
func (c *Client) Create(name string) (vfs.WritableFile, error) {
	resp, err := c.roundTrip(&Request{Op: OpCreate, Name: name})
	if err != nil {
		return nil, err
	}
	return &remoteWritable{c: c, handle: resp.Handle}, nil
}

// Open implements vfs.FS.
func (c *Client) Open(name string) (vfs.RandomAccessFile, error) {
	resp, err := c.roundTrip(&Request{Op: OpOpen, Name: name})
	if err != nil {
		return nil, err
	}
	return &remoteRandom{c: c, handle: resp.Handle, size: resp.Size}, nil
}

// OpenSequential implements vfs.FS via positional reads.
func (c *Client) OpenSequential(name string) (vfs.SequentialFile, error) {
	r, err := c.Open(name)
	if err != nil {
		return nil, err
	}
	return &remoteSequential{r: r}, nil
}

// Remove implements vfs.FS.
func (c *Client) Remove(name string) error {
	_, err := c.roundTrip(&Request{Op: OpRemove, Name: name})
	return err
}

// Rename implements vfs.FS.
func (c *Client) Rename(oldname, newname string) error {
	_, err := c.roundTrip(&Request{Op: OpRename, Name: oldname, Name2: newname})
	return err
}

// List implements vfs.FS.
func (c *Client) List(dir string) ([]vfs.FileInfo, error) {
	resp, err := c.roundTrip(&Request{Op: OpList, Name: dir})
	if err != nil {
		return nil, err
	}
	return resp.Infos, nil
}

// MkdirAll implements vfs.FS.
func (c *Client) MkdirAll(dir string) error {
	_, err := c.roundTrip(&Request{Op: OpMkdir, Name: dir})
	return err
}

// SyncDir implements vfs.FS. The operation is idempotent, so roundTrip's
// retry-on-reconnect is safe.
func (c *Client) SyncDir(dir string) error {
	_, err := c.roundTrip(&Request{Op: OpSyncDir, Name: dir})
	return err
}

// Sum returns the storage node's SHA-256 of the whole named file plus its
// size. Replica re-sync uses it as the diff predicate: two replicas whose
// (size, sum) agree hold byte-identical copies, so only divergent files are
// shipped during a rejoin.
func (c *Client) Sum(name string) ([]byte, int64, error) {
	resp, err := c.roundTrip(&Request{Op: OpSum, Name: name})
	if err != nil {
		return nil, 0, err
	}
	return resp.Data, resp.Size, nil
}

// Stat implements vfs.FS.
func (c *Client) Stat(name string) (vfs.FileInfo, error) {
	resp, err := c.roundTrip(&Request{Op: OpStat, Name: name})
	if err != nil {
		return vfs.FileInfo{}, err
	}
	if len(resp.Infos) != 1 {
		return vfs.FileInfo{}, fmt.Errorf("dstore: stat returned %d infos", len(resp.Infos))
	}
	return resp.Infos[0], nil
}

type remoteWritable struct {
	c      *Client
	handle uint64
	buf    []byte
	seq    uint64 // last packet sequence number shipped for this handle
}

func (w *remoteWritable) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	if len(w.buf) >= writePacketSize {
		if err := w.flush(); err != nil {
			// The bytes were accepted into the local packet buffer (and
			// stay there for a later flush); report them as written per
			// the io.Writer contract so caller offsets stay consistent.
			return len(p), err
		}
	}
	return len(p), nil
}

func (w *remoteWritable) flush() error {
	for len(w.buf) > 0 {
		packet := w.buf
		if len(packet) > writePacketSize {
			packet = packet[:writePacketSize]
		}
		// Sequence numbers make the append idempotent: if this packet is
		// retried because the response was lost, the server recognizes
		// the duplicate and replays the response instead of re-appending.
		resp, err := w.c.roundTrip(&Request{Op: OpWrite, Handle: w.handle, Data: packet, Seq: w.seq + 1})
		if err != nil {
			return err
		}
		w.seq++
		if resp.N != len(packet) {
			return fmt.Errorf("dstore: short remote write (%d of %d)", resp.N, len(packet))
		}
		w.buf = w.buf[len(packet):]
	}
	w.buf = w.buf[:0]
	return nil
}

func (w *remoteWritable) Sync() error {
	if err := w.flush(); err != nil {
		return err
	}
	_, err := w.c.roundTrip(&Request{Op: OpSync, Handle: w.handle})
	return err
}

func (w *remoteWritable) Close() error {
	if err := w.flush(); err != nil {
		return err
	}
	_, err := w.c.roundTrip(&Request{Op: OpCloseW, Handle: w.handle})
	return err
}

// remoteRandom is a read handle. It streams ahead like an HDFS input
// stream: a read that starts inside the span of the handle's previous read
// (sequential, or overlapping it as a sealed reader's block-aligned reads
// do) fetches one writePacketSize packet, and the reads that follow are
// copied out of it without a round trip. Reads that start anywhere else, and
// reads of a packet or more, go to the wire as they are, so a random point
// read costs exactly one round trip. The packet never extends past the size
// seen at open, and files are append-only, so its bytes cannot go stale.
type remoteRandom struct {
	c      *Client
	handle uint64
	size   int64

	mu         sync.Mutex
	prev, next int64  // the span [prev, next) of the previous read
	ahead      []byte // bytes [aheadOff, aheadOff+len(ahead)) of the file
	aheadOff   int64
	spare      []byte // a retired packet buffer nothing reads from any more
}

// ReadAt serves p from the packet when it lies inside it; otherwise it is a
// packet fetch or a direct read, one round trip per maxReadLen bytes of p.
func (r *remoteRandom) ReadAt(p []byte, off int64) (int, error) {
	end := off + int64(len(p))
	r.mu.Lock()
	if len(p) > 0 && off >= r.aheadOff && end <= r.aheadOff+int64(len(r.ahead)) {
		copy(p, r.ahead[off-r.aheadOff:])
		r.prev, r.next = off, end
		r.mu.Unlock()
		return len(p), nil
	}
	stream := len(p) > 0 && len(p) < writePacketSize && end <= r.size &&
		r.next > r.prev && off >= r.prev && off <= r.next
	r.prev, r.next = off, end
	if !stream {
		r.mu.Unlock()
		return r.readWire(p, off)
	}
	// The new packet starts at off. Bytes of it the current packet already
	// holds are carried over, so each fetch brings a full packet of new ones.
	from, carry := off, []byte(nil)
	if off >= r.aheadOff && off < r.aheadOff+int64(len(r.ahead)) {
		carry = r.ahead[off-r.aheadOff:]
		from = r.aheadOff + int64(len(r.ahead))
	}
	fetch := int(min(writePacketSize, r.size-from))
	buf := append(slices.Grow(r.spare[:0], len(carry)+fetch), carry...)
	r.spare = nil
	r.mu.Unlock()

	// The round trip runs unlocked: reads the packet already holds, on
	// other goroutines, do not wait for it.
	n, err := r.readWire(buf[len(buf):len(buf)+fetch], from)
	buf = buf[:len(buf)+n]
	got := copy(p, buf)
	r.mu.Lock()
	if err == nil {
		r.spare, r.ahead, r.aheadOff = r.ahead, buf, off
	} else {
		r.spare = buf
	}
	r.mu.Unlock()
	if got < len(p) {
		return got, err
	}
	return got, nil
}

// readWire reads p at off over the wire, one round trip per maxReadLen bytes
// of p, so in practice one.
func (r *remoteRandom) readWire(p []byte, off int64) (int, error) {
	total := 0
	for {
		n, err := r.readChunk(p[total:min(total+maxReadLen, len(p))], off+int64(total))
		total += n
		if err != nil || total == len(p) {
			return total, err
		}
	}
}

func (r *remoteRandom) readChunk(p []byte, off int64) (int, error) {
	resp, err := r.c.roundTripInto(&Request{Op: OpReadAt, Handle: r.handle, Off: off, Len: len(p)}, p)
	if err != nil {
		return 0, err
	}
	n := len(resp.Data)
	// Only report EOF when the server did; a short response mid-file is a
	// transfer anomaly, not end-of-file.
	if resp.EOF {
		return n, io.EOF
	}
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

func (r *remoteRandom) Size() (int64, error) { return r.size, nil }

func (r *remoteRandom) Close() error {
	_, err := r.c.roundTrip(&Request{Op: OpCloseR, Handle: r.handle})
	return err
}

type remoteSequential struct {
	r   vfs.RandomAccessFile
	off int64
}

func (s *remoteSequential) Read(p []byte) (int, error) {
	n, err := s.r.ReadAt(p, s.off)
	s.off += int64(n)
	if n > 0 && err == io.EOF {
		return n, nil
	}
	return n, err
}

func (s *remoteSequential) Close() error { return s.r.Close() }
