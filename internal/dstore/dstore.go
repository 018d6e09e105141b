// Package dstore implements the disaggregated-storage substrate: a TCP
// remote-file service (the stand-in for the paper's HDFS deployment on a
// second server) plus a client that satisfies vfs.FS so the LSM engine can
// run unmodified against remote storage.
//
// The server emulates the network between compute and storage servers with
// a configurable per-operation latency and a bandwidth cap (the paper's
// testbed is a 1 Gbps switch), and accounts I/O per operation class so the
// Table 3 experiment (read/write distribution by server) can be
// regenerated.
package dstore

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"shield/internal/netretry"
	"shield/internal/vfs"
)

// Op identifies one remote filesystem operation.
type Op uint8

// Remote operations.
const (
	OpCreate Op = iota + 1
	OpWrite
	OpSync
	OpCloseW
	OpOpen
	OpReadAt
	OpCloseR
	OpRemove
	OpRename
	OpList
	OpMkdir
	OpStat
	OpSyncDir
	opRetired // was OpDigest, a keyless tag-chain audit nothing ran; refused as an unknown op
	OpSum
)

// Request is the wire request; frame.go has its encoding.
type Request struct {
	Op     Op
	Name   string
	Name2  string
	Handle uint64
	Off    int64
	Len    int
	Data   []byte

	// Seq is a per-write-handle packet sequence number (1, 2, ...) that
	// makes OpWrite idempotent: if the client retries a packet because the
	// response was lost in transit, the server recognizes the repeated Seq
	// and replays the recorded response instead of appending the data
	// twice. 0 means "no dedup" (legacy / non-write ops).
	Seq uint64
}

// Response is the wire response; frame.go has its encoding.
type Response struct {
	Err    string
	Handle uint64
	N      int
	Size   int64
	Data   []byte
	Infos  []vfs.FileInfo
	EOF    bool
}

// Server serves a base filesystem over TCP.
type Server struct {
	base  vfs.FS
	stats *vfs.CountingFS
	ln    *netretry.Listener

	latency     time.Duration
	bytesPerSec int64
	linkMu      sync.Mutex
	linkFree    time.Time

	mu      sync.Mutex
	writers map[uint64]*writerEntry
	readers map[uint64]vfs.RandomAccessFile
	nextID  uint64
}

// writerEntry is a server-side open write handle plus the duplicate-
// detection state for idempotent appends: the last applied packet sequence
// number and its byte count, so a redelivered packet's response can be
// replayed without touching the file.
type writerEntry struct {
	mu      sync.Mutex // serializes writes per handle, Seq bookkeeping
	f       vfs.WritableFile
	lastSeq uint64
	lastN   int
}

// NewServer starts a storage node on addr serving base. latency and
// bytesPerSec emulate the network link (0 disables each).
func NewServer(base vfs.FS, addr string, latency time.Duration, bytesPerSec int64) (*Server, error) {
	s := &Server{
		base:        base,
		stats:       vfs.NewCounting(base),
		latency:     latency,
		bytesPerSec: bytesPerSec,
		writers:     make(map[uint64]*writerEntry),
		readers:     make(map[uint64]vfs.RandomAccessFile),
	}
	ln, err := netretry.Listen(addr, s.serveConn)
	if err != nil {
		return nil, fmt.Errorf("dstore: listen: %w", err)
	}
	s.ln = ln
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr() }

// Stats exposes the server-side I/O counters.
func (s *Server) Stats() vfs.Snapshot { return s.stats.Stats.Snapshot() }

// LocalFS returns the server's accounting filesystem — what a co-located
// service (e.g. the offloaded-compaction worker) uses to reach the same
// files without crossing the network.
func (s *Server) LocalFS() vfs.FS { return s.stats }

// charge models the link: fixed round-trip latency plus serialization time
// of n bytes on a shared link.
func (s *Server) charge(n int) {
	s.linkMu.Lock()
	wait := s.latency
	if s.bytesPerSec > 0 && n > 0 {
		xfer := time.Duration(int64(n) * int64(time.Second) / s.bytesPerSec)
		now := time.Now()
		start := s.linkFree
		if start.Before(now) {
			start = now
		}
		s.linkFree = start.Add(xfer)
		wait += s.linkFree.Sub(now)
	}
	s.linkMu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// Close stops the server, then releases the handles its clients left open.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	writers, readers := s.writers, s.readers
	s.writers, s.readers = make(map[uint64]*writerEntry), make(map[uint64]vfs.RandomAccessFile)
	s.mu.Unlock()
	for _, w := range writers {
		w.f.Close()
	}
	for _, r := range readers {
		r.Close()
	}
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	s.serve(conn) //nolint:errcheck // the peer is dropped whatever ended it
}

// serve answers one connection's requests until the peer hangs up or sends
// something other than a well-formed frame, and returns what ended it. Any
// error drops the peer: past a bad frame the stream cannot be trusted.
func (s *Server) serve(conn net.Conn) error {
	fr := frameReader{r: bufio.NewReader(conn)}
	fw := frameWriter{conn: conn}
	// data holds a request's data, then the reply's: an OpWrite's packet is
	// applied before the reply is built, and an OpReadAt has none.
	var data, out []byte
	for {
		req, err := readRequest(&fr, &data)
		if err != nil {
			return err
		}
		var resp Response
		if err := s.handle(&req, &resp, &data); err != nil {
			resp = Response{Err: err.Error()}
		}
		if out, err = appendResponse(out[:0], &resp); err != nil { // a listing too long for one frame
			resp = Response{Err: err.Error()}
			out, _ = appendResponse(out[:0], &resp)
		}
		if err := fw.send(out, resp.Data); err != nil {
			return err
		}
		if cap(data) > maxRetained {
			data = nil
		}
	}
}

const (
	// maxReadLen bounds one OpReadAt. Len and Off arrive straight off the
	// socket, so without a check a single frame could panic the node (either
	// one negative) or make it allocate without limit; clients split larger
	// reads.
	maxReadLen = 16 << 20

	// maxRetained caps each buffer a connection keeps between frames: a
	// larger one, grown for one long listing or read, is dropped after it.
	maxRetained = 1 << 20
)

// handle executes one request into resp, or returns the error the reply
// carries instead. An OpReadAt reads into *buf.
func (s *Server) handle(req *Request, resp *Response, buf *[]byte) error {
	if req.Op == OpReadAt {
		if req.Len < 0 || req.Len > maxReadLen {
			return fmt.Errorf("dstore: read length %d outside [0, %d]", req.Len, maxReadLen)
		}
		if req.Off < 0 {
			return fmt.Errorf("dstore: negative read offset %d", req.Off)
		}
	}
	switch req.Op {
	case OpWrite, OpReadAt:
		n := len(req.Data)
		if req.Op == OpReadAt {
			n = req.Len
		}
		s.charge(n)
	default:
		s.charge(0)
	}

	switch req.Op {
	case OpCreate:
		f, err := s.stats.Create(req.Name)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.nextID++
		id := s.nextID
		s.writers[id] = &writerEntry{f: f}
		s.mu.Unlock()
		resp.Handle = id
	case OpWrite:
		s.mu.Lock()
		w, ok := s.writers[req.Handle]
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("dstore: unknown write handle %d", req.Handle)
		}
		w.mu.Lock()
		if req.Seq != 0 && req.Seq == w.lastSeq {
			// Duplicate delivery of the last packet (client retried after a
			// lost response): replay the recorded result, do not re-append.
			resp.N = w.lastN
			w.mu.Unlock()
			break
		}
		n, err := w.f.Write(req.Data)
		if err == nil && req.Seq != 0 {
			w.lastSeq, w.lastN = req.Seq, n
		}
		w.mu.Unlock()
		resp.N = n
		if err != nil {
			return err
		}
	case OpSync:
		s.mu.Lock()
		w, ok := s.writers[req.Handle]
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("dstore: unknown write handle %d", req.Handle)
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
	case OpCloseW:
		s.mu.Lock()
		w, ok := s.writers[req.Handle]
		delete(s.writers, req.Handle)
		s.mu.Unlock()
		if ok {
			if err := w.f.Close(); err != nil {
				return err
			}
		}
	case OpOpen:
		f, err := s.stats.Open(req.Name)
		if err != nil {
			return err
		}
		size, err := f.Size()
		if err != nil {
			f.Close()
			return err
		}
		s.mu.Lock()
		s.nextID++
		id := s.nextID
		s.readers[id] = f
		s.mu.Unlock()
		resp.Handle = id
		resp.Size = size
	case OpReadAt:
		s.mu.Lock()
		f, ok := s.readers[req.Handle]
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("dstore: unknown read handle %d", req.Handle)
		}
		if cap(*buf) < req.Len {
			*buf = make([]byte, req.Len)
		}
		n, err := f.ReadAt((*buf)[:req.Len], req.Off)
		resp.Data = (*buf)[:n]
		resp.N = n
		if err != nil {
			if errors.Is(err, io.EOF) {
				resp.EOF = true
			} else {
				return err
			}
		}
	case OpCloseR:
		s.mu.Lock()
		f, ok := s.readers[req.Handle]
		delete(s.readers, req.Handle)
		s.mu.Unlock()
		if ok {
			f.Close()
		}
	case OpRemove:
		if err := s.stats.Remove(req.Name); err != nil {
			return err
		}
	case OpRename:
		if err := s.stats.Rename(req.Name, req.Name2); err != nil {
			return err
		}
	case OpList:
		infos, err := s.stats.List(req.Name)
		if err != nil {
			return err
		}
		resp.Infos = infos
	case OpMkdir:
		if err := s.stats.MkdirAll(req.Name); err != nil {
			return err
		}
	case OpStat:
		info, err := s.stats.Stat(req.Name)
		if err != nil {
			return err
		}
		resp.Infos = []vfs.FileInfo{info}
	case OpSyncDir:
		if err := s.stats.SyncDir(req.Name); err != nil {
			return err
		}
	case OpSum:
		// Replica re-sync's diff predicate: SHA-256 of the whole file plus
		// its size, one small RPC per file. Computed node-side, streamed over
		// the file so that neither holds it in memory nor ships its body
		// across the link.
		f, err := s.stats.Open(req.Name)
		if err != nil {
			return err
		}
		defer f.Close()
		size, err := f.Size()
		if err != nil {
			return err
		}
		h := sha256.New()
		if _, err := io.Copy(h, io.NewSectionReader(f, 0, size)); err != nil {
			return err
		}
		resp.Data, resp.Size = h.Sum(nil), size
	default:
		return fmt.Errorf("dstore: unknown op %d", req.Op)
	}
	return nil
}
