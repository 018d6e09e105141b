// Package server implements the SHIELD serving front-end: a RESP-speaking
// TCP server fronting N hash-partitioned shard instances of the LSM engine.
// Each shard is its own engine — one WAL, one commit loop, one scheduler,
// one block cache — so shards never contend on engine locks; the shared
// pieces (KDS client, secure DEK cache) are wired in by the caller when the
// shards are opened.
//
// The write path is built for coalescing at two levels. Within one
// connection, consecutive SET/DEL commands of a pipelined batch are folded
// into a single engine batch per shard (one commit, one WAL record run).
// Across connections, those per-shard commits land in the engine's commit
// loop, whose group commit merges concurrently arriving batches into one
// WAL sync — the lsm.Metrics.WALSyncs counter makes the effect observable:
// under concurrent load it stays well below the number of synced batches.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shield/internal/lsm"
	"shield/internal/metrics"
)

// Engine is the per-shard slice of the LSM engine the server drives.
// *lsm.DB implements it; the simulation substitutes a swappable handle so
// the nemesis can crash and reopen the engine underneath a live server.
type Engine interface {
	Get(key []byte) ([]byte, error)
	Write(b *lsm.Batch, sync bool) error
	Metrics() lsm.Metrics
}

// Config parameterizes a Server.
type Config struct {
	// Shards are the engines; keys are routed by hash. Required, len >= 1.
	Shards []Engine

	// Sync commits every write batch with a WAL fsync. Default true: an
	// acknowledged SET is durable, and group commit keeps the sync count
	// sublinear in the write count. False trades durability for latency
	// (the engine's buffered-WAL mode).
	Sync *bool

	// MaxPipeline bounds how many commands one reader cycle executes before
	// replies are flushed. Default 128 (matching the engine's group-commit
	// window).
	MaxPipeline int

	// IdleTimeout disconnects a connection with no complete command for
	// this long — the slow-client guard. Default 5 minutes.
	IdleTimeout time.Duration

	// WriteTimeout bounds flushing a reply batch to one connection, so one
	// stuck client cannot wedge its handler forever. Default 30 seconds.
	WriteTimeout time.Duration

	// DrainTimeout bounds graceful shutdown: connections that have not
	// finished their in-flight pipeline batch when it expires are closed
	// hard. Default 5 seconds.
	DrainTimeout time.Duration

	// Logger receives connection-level event lines; nil discards.
	Logger func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxPipeline <= 0 {
		c.MaxPipeline = 128
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.Sync == nil {
		t := true
		c.Sync = &t
	}
	if c.Logger == nil {
		c.Logger = func(string, ...any) {}
	}
	return c
}

// ShardStats are one shard's serving counters. All fields are atomic; read
// them through Stats.
type ShardStats struct {
	Gets         atomic.Int64 // GET commands routed here
	Sets         atomic.Int64 // SET commands routed here
	Dels         atomic.Int64 // DEL keys routed here
	WriteBatches atomic.Int64 // coalesced engine batches committed
	Errors       atomic.Int64 // commands answered with -ERR
}

// ShardSnapshot is a point-in-time copy of one shard's counters plus the
// engine counters the serving layer is accountable for.
type ShardSnapshot struct {
	Gets         int64
	Sets         int64
	Dels         int64
	WriteBatches int64
	Errors       int64
	Engine       lsm.Metrics
}

// Server is the RESP front-end.
type Server struct {
	cfg  Config
	sync bool

	ln     net.Listener
	lnMu   sync.Mutex
	closed atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	shardStats []*ShardStats
}

// New builds a server over the given shards.
func New(cfg Config) (*Server, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("server: Config.Shards is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		sync:  *cfg.Sync,
		conns: make(map[net.Conn]struct{}),
	}
	for range cfg.Shards {
		s.shardStats = append(s.shardStats, &ShardStats{})
	}
	return s, nil
}

// shardFor routes a key to a shard by its 32-bit FNV-1a hash (hash/fnv's
// New32a, inlined: stores on disk are sharded by exactly this function).
func (s *Server) shardFor(key []byte) int {
	if len(s.cfg.Shards) == 1 {
		return 0
	}
	h := uint32(2166136261)
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % uint32(len(s.cfg.Shards)))
}

// Listen binds addr (use "127.0.0.1:0" for an ephemeral port) without
// starting to accept; Serve then drives the accept loop.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	return nil
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string {
	s.lnMu.Lock()
	ln := s.ln
	s.lnMu.Unlock()
	if ln == nil {
		return ""
	}
	return ln.Addr().String()
}

// Serve accepts connections until Close. It returns nil on a clean
// shutdown.
func (s *Server) Serve() error {
	s.lnMu.Lock()
	ln := s.ln
	s.lnMu.Unlock()
	if ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		if !s.track(conn) {
			conn.Close() //nolint:errcheck // raced with shutdown
			return nil
		}
		metrics.Serve.ConnsOpened.Add(1)
		metrics.Serve.ConnsOpen.Add(1)
		go func() {
			defer metrics.Serve.ConnsOpen.Add(-1)
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// track registers conn and accounts its future handler in s.wg inside the
// same connMu critical section as the closed check. Doing the Add here —
// not after track returns — orders it before Close's drain: Close snapshots
// the registry under connMu (openConns) before it starts wg.Wait, so a
// handler can no longer slip its Add in after the Wait already observed a
// zero counter and let Close return with the handler still live.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

// untrack is the handler-side release for track: deregister, close, and
// only then drop the wg count so Close cannot return before the conn is
// actually off the books.
func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	conn.Close() //nolint:errcheck // idempotent; the handler may have closed already
	s.wg.Done()
}

// Close drains and shuts down: stop accepting, wake idle readers so their
// handlers exit at the next command boundary (in-flight pipeline batches
// finish and flush their replies), then hard-close whatever is left after
// DrainTimeout. Shard engines are NOT closed — the caller owns them.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.lnMu.Lock()
	ln := s.ln
	s.lnMu.Unlock()
	if ln != nil {
		ln.Close() //nolint:errcheck // double-close is the only error path
	}

	// Wake every blocked reader; handlers see closed and exit cleanly.
	now := time.Now()
	for _, c := range s.openConns() {
		c.SetReadDeadline(now) //nolint:errcheck // best effort wake-up
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		for _, c := range s.openConns() {
			c.Close() //nolint:errcheck // hard drop past the drain budget
		}
		<-done
	}
	return nil
}

// openConns snapshots the registry; deadline pokes and hard closes happen
// outside connMu so no I/O runs under the lock.
func (s *Server) openConns() []net.Conn {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	out := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		out = append(out, c)
	}
	return out
}

// Stats snapshots every shard's serving and engine counters.
func (s *Server) Stats() []ShardSnapshot {
	out := make([]ShardSnapshot, len(s.cfg.Shards))
	for i, sh := range s.cfg.Shards {
		st := s.shardStats[i]
		out[i] = ShardSnapshot{
			Gets:         st.Gets.Load(),
			Sets:         st.Sets.Load(),
			Dels:         st.Dels.Load(),
			WriteBatches: st.WriteBatches.Load(),
			Errors:       st.Errors.Load(),
			Engine:       sh.Metrics(),
		}
	}
	return out
}
