package server

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"testing"
	"time"

	"shield/internal/lsm"
	"shield/internal/resp"
	"shield/internal/vfs"
)

// scriptConn is a connection whose reads are scripted: each Read returns the
// next piece (io.EOF after the last), every Write is appended to out, and
// the deadlines the handler sets are recorded instead of enforced.
type scriptConn struct {
	net.Conn // nil: only the methods below are called
	pieces   [][]byte
	out      bytes.Buffer

	readDeadlines, writeDeadlines []time.Time
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.pieces) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.pieces[0])
	if c.pieces[0] = c.pieces[0][n:]; len(c.pieces[0]) == 0 {
		c.pieces = c.pieces[1:]
	}
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *scriptConn) RemoteAddr() net.Addr        { return &net.TCPAddr{} }

func (c *scriptConn) SetReadDeadline(t time.Time) error {
	c.readDeadlines = append(c.readDeadlines, t)
	return nil
}

func (c *scriptConn) SetWriteDeadline(t time.Time) error {
	c.writeDeadlines = append(c.writeDeadlines, t)
	return nil
}

// split cuts data into pieces of the given size.
func split(data []byte, size int) [][]byte {
	var pieces [][]byte
	for len(data) > 0 {
		n := min(size, len(data))
		pieces, data = append(pieces, data[:n]), data[n:]
	}
	return pieces
}

// memServer builds a server over nShards fresh in-memory engines; it is
// never bound to a socket, tests drive handle directly.
func memServer(t *testing.T, nShards int) *Server {
	t.Helper()
	var shards []Engine
	for i := 0; i < nShards; i++ {
		db, err := lsm.Open(fmt.Sprintf("shard-%d", i), lsm.Options{FS: vfs.NewMem(), MemtableSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() }) //nolint:errcheck // scratch store
		shards = append(shards, db)
	}
	s, err := New(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ycsbPipeline encodes n commands alternating SET and GET over a few keys,
// GETs reading keys set earlier in the same pipeline and one never set.
func ycsbPipeline(n int) []byte {
	var buf bytes.Buffer
	w := resp.NewWriter(&buf)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("user%016d", i/2%5))
		if i%2 == 0 {
			w.Command([]byte("SET"), key, bytes.Repeat([]byte{'a' + byte(i)}, 512)) //nolint:errcheck
		} else if i == n-1 {
			w.Command([]byte("GET"), []byte("never-set")) //nolint:errcheck
		} else {
			w.Command([]byte("GET"), key) //nolint:errcheck
		}
	}
	w.Flush() //nolint:errcheck
	return buf.Bytes()
}

// TestPipelineSplitAcrossReads delivers one 16-command SET/GET pipeline of
// more than 4 KiB in pieces from 1 byte to 8 KiB. However the reads fall —
// inside a header, a key, a value or a CRLF — the replies must be
// byte-identical to those of the pipeline delivered whole.
func TestPipelineSplitAcrossReads(t *testing.T) {
	pipeline := ycsbPipeline(16)
	if len(pipeline) <= 4096 {
		t.Fatalf("pipeline is only %d bytes", len(pipeline))
	}
	whole := &scriptConn{pieces: [][]byte{pipeline}}
	memServer(t, 2).handle(whole)
	want := whole.out.Bytes()
	if n := bytes.Count(want, []byte("+OK\r\n")); n != 8 || !bytes.HasSuffix(want, []byte("$-1\r\n")) {
		t.Fatalf("reference replies look wrong (%d OKs): %q", n, want)
	}
	for _, size := range []int{1, 2, 3, 5, 17, 64, 333, 1000, 4096, 8192} {
		c := &scriptConn{pieces: split(pipeline, size)}
		memServer(t, 2).handle(c)
		if !bytes.Equal(c.out.Bytes(), want) {
			t.Errorf("pieces of %d bytes: replies differ\n got %q\nwant %q", size, c.out.Bytes(), want)
		}
	}
}

// TestShardForIsFNV1a pins the routing function: stores on disk were
// sharded by hash/fnv's 32-bit FNV-1a mod n, so the inlined hash must agree
// with it on every key, or a restarted server would look in the wrong shard.
func TestShardForIsFNV1a(t *testing.T) {
	if got := memServer(t, 1).shardFor([]byte("anything")); got != 0 {
		t.Fatalf("single shard routed to %d", got)
	}
	keys := [][]byte{nil, {}, []byte("a"), []byte("user0000000000000042"), []byte("c3-k11"), {0, 255, '\r', '\n'}, bytes.Repeat([]byte("long"), 500)}
	for _, n := range []int{2, 3, 4, 7, 16} {
		s := &Server{cfg: Config{Shards: make([]Engine, n)}}
		for _, key := range keys {
			h := fnv.New32a()
			h.Write(key) //nolint:errcheck // fnv never errors
			if got, want := s.shardFor(key), int(h.Sum32()%uint32(n)); got != want {
				t.Errorf("shardFor(%q) of %d = %d, hash/fnv says %d", key, n, got, want)
			}
		}
	}
	// Known answers (the published FNV-1a vectors 0x811c9dc5, 0xe40c292c and
	// 0xbf9cf968), so the test does not only compare two implementations.
	s := &Server{cfg: Config{Shards: make([]Engine, 16)}}
	for key, want := range map[string]int{"": 0x5, "a": 0xc, "foobar": 0x8} {
		if got := s.shardFor([]byte(key)); got != want {
			t.Errorf("shardFor(%q) of 16 = %#x, want %#x", key, got, want)
		}
	}
}

// TestDeadlinesArmedLazily checks that a busy connection does not touch its
// timers per batch: over many back-to-back pipelines each deadline is set
// once (far less than 1/8 of either timeout passes), and what is set leaves
// the full timeout.
func TestDeadlinesArmedLazily(t *testing.T) {
	s := memServer(t, 2)
	c := &scriptConn{}
	for i := 0; i < 200; i++ {
		c.pieces = append(c.pieces, ycsbPipeline(16))
	}
	start := time.Now()
	s.handle(c)
	if n := bytes.Count(c.out.Bytes(), []byte("+OK\r\n")); n != 200*8 {
		t.Fatalf("%d SET replies, want %d", n, 200*8)
	}
	if len(c.readDeadlines) != 1 || len(c.writeDeadlines) != 1 {
		t.Fatalf("200 batches set the read deadline %d times and the write deadline %d times, want once each",
			len(c.readDeadlines), len(c.writeDeadlines))
	}
	if d := c.readDeadlines[0].Sub(start); d < s.cfg.IdleTimeout || d > s.cfg.IdleTimeout+time.Minute {
		t.Errorf("idle deadline armed %v out, want IdleTimeout %v", d, s.cfg.IdleTimeout)
	}
	if d := c.writeDeadlines[0].Sub(start); d < s.cfg.WriteTimeout || d > s.cfg.WriteTimeout+time.Minute {
		t.Errorf("write deadline armed %v out, want WriteTimeout %v", d, s.cfg.WriteTimeout)
	}
}

// TestDeadlineRearmedAfterAnEighth checks the other side of the lazy rule:
// once an eighth of the timeout has passed since a deadline was armed, the
// next wait arms it again — unless no command has run since, so a client
// that is merely slow inside one command never gets more time.
func TestDeadlineRearmedAfterAnEighth(t *testing.T) {
	s := memServer(t, 1)
	s.cfg.IdleTimeout, s.cfg.WriteTimeout = 200*time.Millisecond, 200*time.Millisecond
	c := &pausingConn{scriptConn: scriptConn{pieces: [][]byte{
		[]byte("PING\r\n"), []byte("PING\r\n"),
		nil, []byte("PING\r\n"), // a pause of more than T/8, then a command
		nil, []byte("*1\r\n$4\r\nPI"), nil, []byte("NG\r\n"), // a command that pauses in the middle
	}}, pause: 30 * time.Millisecond}
	s.handle(c)
	if got := c.out.String(); got != "+PONG\r\n+PONG\r\n+PONG\r\n+PONG\r\n" {
		t.Fatalf("replies %q", got)
	}
	// armedWith[n]: the read deadline was set with n pieces still unread.
	armedWith := map[int]bool{}
	for _, n := range c.armedWith {
		armedWith[n] = true
	}
	if !armedWith[8] || !armedWith[4] || !armedWith[0] {
		t.Errorf("read deadline armed with %v pieces left, want at the start (8) and after each pause that followed a command (4, 0)", c.armedWith)
	}
	if armedWith[2] {
		t.Errorf("read deadline re-armed in the middle of a command (armed with %v pieces left)", c.armedWith)
	}
	if len(c.writeDeadlines) < 3 {
		t.Errorf("write deadline set %d times across two pauses, want at least 3", len(c.writeDeadlines))
	}
}

// pausingConn sleeps where the script has a nil piece, and notes how much of
// the script was left whenever the read deadline is set.
type pausingConn struct {
	scriptConn
	pause     time.Duration
	armedWith []int
}

func (c *pausingConn) Read(p []byte) (int, error) {
	for len(c.pieces) > 0 && c.pieces[0] == nil {
		time.Sleep(c.pause)
		c.pieces = c.pieces[1:]
	}
	return c.scriptConn.Read(p)
}

func (c *pausingConn) SetReadDeadline(time.Time) error {
	c.armedWith = append(c.armedWith, len(c.pieces))
	return nil
}
