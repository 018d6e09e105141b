package dstore

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"shield/internal/netretry"
	"shield/internal/vfs"
)

func fastDStoreConfig(conns int) Config {
	return Config{
		Conns: conns,
		Policy: netretry.Policy{
			DialTimeout:    200 * time.Millisecond,
			RequestTimeout: 500 * time.Millisecond,
			BackoffBase:    time.Millisecond,
			BackoffMax:     10 * time.Millisecond,
		},
		MaxAttempts: 4,
	}
}

// dropResponseNProxy forwards TCP traffic but swallows the n-th
// upstream->client payload and closes the connection, losing exactly one
// response after its request was applied server-side.
type dropResponseNProxy struct {
	ln       net.Listener
	upstream string
	dropN    int

	mu   sync.Mutex
	seen int
}

func newDropResponseNProxy(t *testing.T, upstream string, dropN int) *dropResponseNProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &dropResponseNProxy{ln: ln, upstream: upstream, dropN: dropN}
	go p.serve()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *dropResponseNProxy) addr() string { return p.ln.Addr().String() }

func (p *dropResponseNProxy) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handle(conn)
	}
}

func (p *dropResponseNProxy) handle(conn net.Conn) {
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		conn.Close()
		return
	}
	go func() {
		io.Copy(up, conn) //nolint:errcheck
		up.Close()
	}()
	buf := make([]byte, 64<<10)
	for {
		n, err := up.Read(buf)
		if err != nil {
			conn.Close()
			up.Close()
			return
		}
		p.mu.Lock()
		p.seen++
		drop := p.seen == p.dropN
		p.mu.Unlock()
		if drop {
			conn.Close()
			up.Close()
			return
		}
		if _, err := conn.Write(buf[:n]); err != nil {
			conn.Close()
			up.Close()
			return
		}
	}
}

// TestConnDropRetriedTransparently loses a response mid-workload; the
// client must discard the desynced connection, redial, retry, and finish
// the file intact.
func TestConnDropRetriedTransparently(t *testing.T) {
	base := vfs.NewMem()
	srv, err := NewServer(base, "127.0.0.1:0", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Response #2 is the first OpWrite's (after OpCreate's): it is lost
	// after the server applied the write.
	proxy := newDropResponseNProxy(t, srv.Addr(), 2)

	c, err := DialConfig(proxy.addr(), fastDStoreConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := []byte("exactly-once payload")
	f, err := c.Create("file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync across dropped response: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The retried write must not have been applied twice.
	got, err := vfs.ReadFile(base, "file")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("server file = %q (%d bytes), want %q once", got, len(got), payload)
	}

	// And the client must still be usable on its redialed connection.
	r, err := c.Open("file")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, len(payload))
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != string(payload) {
		t.Fatalf("read back %q, want %q", buf, payload)
	}
}

// TestLostReplyRenameRemoveIdempotent drops exactly the reply to a Rename
// (then a Remove) the server has applied. The re-send answers ErrNotFound —
// the source is gone — and the client must recognise the goal state instead
// of failing the engine's CURRENT.tmp -> CURRENT install. ErrNotFound on a
// first attempt, or on a re-send whose target does not exist either, is a
// real answer and still surfaces.
func TestLostReplyRenameRemoveIdempotent(t *testing.T) {
	base := vfs.NewMem()
	srv, err := NewServer(base, "127.0.0.1:0", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// dial returns a client whose dropN-th reply is lost (0: none).
	dial := func(dropN int) *Client {
		c, err := DialConfig(newDropResponseNProxy(t, srv.Addr(), dropN).addr(), fastDStoreConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	for _, name := range []string{"CURRENT.tmp", "obsolete"} {
		if err := vfs.WriteFile(base, name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}

	if err := dial(1).Rename("CURRENT.tmp", "CURRENT"); err != nil {
		t.Fatalf("Rename whose reply was lost: %v", err)
	}
	if got, err := vfs.ReadFile(base, "CURRENT"); err != nil || string(got) != "CURRENT.tmp" {
		t.Fatalf("renamed file = %q, %v", got, err)
	}
	if err := dial(1).Remove("obsolete"); err != nil {
		t.Fatalf("Remove whose reply was lost: %v", err)
	}
	if _, err := base.Stat("obsolete"); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("removed file still present (err=%v)", err)
	}

	clean := dial(0)
	if err := clean.Rename("missing", "CURRENT"); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("first-attempt Rename of a missing file: %v, want ErrNotFound", err)
	}
	if err := clean.Remove("missing"); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("first-attempt Remove of a missing file: %v, want ErrNotFound", err)
	}
	if err := dial(1).Rename("missing", "nowhere"); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("re-sent Rename with no target either: %v, want ErrNotFound", err)
	}
}

// TestCloseUnblocksPendingCheckout: with a 1-conn pool held by a slow
// request, a second request blocks on checkout. Close must unblock it with
// ErrClosed instead of leaving it hung forever.
func TestCloseUnblocksPendingCheckout(t *testing.T) {
	base := vfs.NewMem()
	srv, err := NewServer(base, "127.0.0.1:0", 300*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := fastDStoreConfig(1)
	cfg.RequestTimeout = 5 * time.Second // the slow op must not time out
	c, err := DialConfig(srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	slowDone := make(chan struct{})
	go func() { // occupies the only pool slot for ~300ms
		close(started)
		c.MkdirAll("slow") //nolint:errcheck
		close(slowDone)
	}()
	<-started
	time.Sleep(20 * time.Millisecond)

	blockedErr := make(chan error, 1)
	go func() { // blocks on checkout behind the slow op
		_, err := c.List("")
		blockedErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()

	select {
	case err := <-blockedErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked request err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked request still hung 2s after Close")
	}
	<-slowDone
}

// fakeShortReadServer speaks just enough of the protocol to return a short
// ReadAt response without the EOF flag — the mid-file anomaly case.
func fakeShortReadServer(t *testing.T) string {
	t.Helper()
	addr, _ := fakeServer(t, func(req *Request) []byte {
		switch req.Op {
		case OpOpen:
			return replyFrame(Response{Handle: 1, Size: 100})
		case OpReadAt:
			// Short payload, mid-file: EOF deliberately false.
			return replyFrame(Response{Data: []byte("short"), N: 5})
		}
		return replyFrame(Response{})
	})
	return addr
}

// TestReadAtMidFileShortResponse: a short response without the server's
// EOF flag must surface io.ErrUnexpectedEOF, not a silent io.EOF that
// would make readers treat a truncated transfer as end-of-file.
func TestReadAtMidFileShortResponse(t *testing.T) {
	addr := fakeShortReadServer(t)
	c, err := DialConfig(addr, fastDStoreConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := c.Open("whatever")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := r.ReadAt(buf, 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadAt err = %v, want io.ErrUnexpectedEOF", err)
	}
	if n != 5 {
		t.Fatalf("ReadAt n = %d, want 5", n)
	}
}

// TestReadAtEOFStillReported: genuine end-of-file (server sets EOF) must
// still surface io.EOF.
func TestReadAtEOFStillReported(t *testing.T) {
	base := vfs.NewMem()
	if err := vfs.WriteFile(base, "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(base, "127.0.0.1:0", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialConfig(srv.Addr(), fastDStoreConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := c.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 10)
	n, err := r.ReadAt(buf, 0)
	if err != io.EOF {
		t.Fatalf("ReadAt err = %v, want io.EOF", err)
	}
	if n != 3 || string(buf[:n]) != "abc" {
		t.Fatalf("ReadAt = %d %q", n, buf[:n])
	}
}

// TestDialAllConnsFailFast: dialing a dead address must error out, not hang.
func TestDialDeadAddressFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	if _, err := DialConfig(addr, fastDStoreConfig(2)); err == nil {
		t.Fatal("DialConfig to dead address succeeded")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("dead dial took %v", d)
	}
}

// TestPoolSurvivesManyDrops runs a workload through a proxy that keeps
// killing responses; every operation must still complete and the pool must
// keep redialing.
func TestPoolSurvivesManyDrops(t *testing.T) {
	base := vfs.NewMem()
	srv, err := NewServer(base, "127.0.0.1:0", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Drop every 5th response.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	seen := 0
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				up, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					conn.Close()
					return
				}
				go func() {
					io.Copy(up, conn) //nolint:errcheck
					up.Close()
				}()
				buf := make([]byte, 64<<10)
				for {
					n, err := up.Read(buf)
					if err != nil {
						conn.Close()
						up.Close()
						return
					}
					mu.Lock()
					seen++
					drop := seen%5 == 0
					mu.Unlock()
					if drop {
						conn.Close()
						up.Close()
						return
					}
					if _, err := conn.Write(buf[:n]); err != nil {
						conn.Close()
						up.Close()
						return
					}
				}
			}(conn)
		}
	}()

	c, err := DialConfig(ln.Addr().String(), fastDStoreConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 10; i++ {
		name := string(rune('a' + i))
		f, err := c.Create(name)
		if err != nil {
			t.Fatalf("Create %s: %v", name, err)
		}
		if _, err := f.Write([]byte(name)); err != nil {
			t.Fatalf("Write %s: %v", name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("Close %s: %v", name, err)
		}
		got, err := vfs.ReadFile(base, name)
		if err != nil {
			t.Fatalf("read back %s: %v", name, err)
		}
		if string(got) != name {
			t.Fatalf("file %s = %q", name, got)
		}
	}
}
