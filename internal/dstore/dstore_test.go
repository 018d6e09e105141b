package dstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"shield/internal/vfs"
)

func newPair(t *testing.T, latency time.Duration, bw int64) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(vfs.NewMem(), "127.0.0.1:0", latency, bw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client
}

func TestRemoteRoundTrip(t *testing.T) {
	_, client := newPair(t, 0, 0)

	payload := make([]byte, 200_000) // crosses packet boundaries
	rand.New(rand.NewSource(1)).Read(payload)
	if err := vfs.WriteFile(client, "dir/file.bin", payload); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(client, "dir/file.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("remote round trip mismatch")
	}

	// Positional reads at arbitrary offsets.
	f, err := client.Open("dir/file.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 1000)
	if _, err := f.ReadAt(buf, 150_000); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload[150_000:151_000]) {
		t.Fatal("remote ReadAt mismatch")
	}
	if size, _ := f.Size(); size != int64(len(payload)) {
		t.Fatalf("size %d", size)
	}
}

func TestRemoteSmallWritesBufferUntilSync(t *testing.T) {
	srv, client := newPair(t, 0, 0)
	f, err := client.Create("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := f.Write([]byte("tiny record ")); err != nil {
			t.Fatal(err)
		}
	}
	// Small writes aggregate client-side: at most the create RPC hit the
	// server so far.
	if ops := srv.Stats().WriteOps; ops != 0 {
		t.Fatalf("expected 0 server write ops before sync, got %d", ops)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if ops := srv.Stats().WriteOps; ops != 1 {
		t.Fatalf("expected exactly 1 packet after sync, got %d", ops)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := client.Stat("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(100*len("tiny record ")) {
		t.Fatalf("size %d", info.Size)
	}
}

func TestRemoteFSOps(t *testing.T) {
	_, client := newPair(t, 0, 0)
	if err := client.MkdirAll("a/b"); err != nil {
		t.Fatal(err)
	}
	vfs.WriteFile(client, "a/b/x", []byte("1"))
	vfs.WriteFile(client, "a/b/y", []byte("22"))

	infos, err := client.List("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "x" || infos[1].Name != "y" {
		t.Fatalf("list: %v", infos)
	}
	if err := client.Rename("a/b/x", "a/b/z"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Stat("a/b/x"); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("stat renamed-away: %v", err)
	}
	if err := client.Remove("a/b/z"); err != nil {
		t.Fatal(err)
	}
	if err := client.Remove("a/b/z"); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("sentinel across wire: %v", err)
	}
}

func TestRemoteConcurrent(t *testing.T) {
	_, client := newPair(t, 0, 0)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", i)
			payload := bytes.Repeat([]byte{byte(i)}, 10_000)
			for j := 0; j < 20; j++ {
				if err := vfs.WriteFile(client, name, payload); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got, err := vfs.ReadFile(client, name)
				if err != nil || !bytes.Equal(got, payload) {
					t.Errorf("read mismatch: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestBandwidthEmulation(t *testing.T) {
	// 1 MiB at 8 MiB/s ≈ 125ms minimum.
	_, client := newPair(t, 0, 8<<20)
	start := time.Now()
	if err := vfs.WriteFile(client, "big", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("bandwidth cap not enforced: %v", elapsed)
	}
}

func TestServerIOAccounting(t *testing.T) {
	srv, client := newPair(t, 0, 0)
	vfs.WriteFile(client, "f", make([]byte, 70_000))
	vfs.ReadFile(client, "f")
	s := srv.Stats()
	if s.BytesWritten != 70_000 {
		t.Fatalf("bytes written %d", s.BytesWritten)
	}
	if s.BytesRead != 70_000 {
		t.Fatalf("bytes read %d", s.BytesRead)
	}
}

// TestHostileReadLenRejected: OpReadAt's Len and Off come straight off the
// socket in a well-formed frame. A negative or enormous Len, or a negative
// Off, must get an error reply — not a makeslice or slice-bounds panic that
// kills the node, not an allocation of that size — and both the connection
// and the server keep serving.
func TestHostileReadLenRejected(t *testing.T) {
	srv, client := newPair(t, 0, 1<<30) // a bandwidth cap: Len must not reach the link model either
	payload := []byte("still here after the hostile frames")
	if err := vfs.WriteFile(client, "f", payload); err != nil {
		t.Fatal(err)
	}

	w := dialWire(t, srv.Addr())
	open := w.call(Request{Op: OpOpen, Name: "f"})
	if open.Err != "" {
		t.Fatal(open.Err)
	}
	for _, n := range []int{-1, maxReadLen + 1, 1 << 40} {
		if resp := w.call(Request{Op: OpReadAt, Handle: open.Handle, Len: n}); resp.Err == "" || len(resp.Data) != 0 {
			t.Fatalf("Len=%d: reply Err=%q with %d bytes, want an error reply", n, resp.Err, len(resp.Data))
		}
	}
	if resp := w.call(Request{Op: OpReadAt, Handle: open.Handle, Off: -1, Len: len(payload)}); resp.Err == "" || len(resp.Data) != 0 {
		t.Fatalf("Off=-1: reply Err=%q with %d bytes, want an error reply", resp.Err, len(resp.Data))
	}
	// Same connection, same handle: a normal read still works.
	if resp := w.call(Request{Op: OpReadAt, Handle: open.Handle, Len: len(payload)}); resp.Err != "" || !bytes.Equal(resp.Data, payload) {
		t.Fatalf("read after the hostile frames: Err=%q data=%q", resp.Err, resp.Data)
	}
	// And so does the ordinary client.
	if got, err := vfs.ReadFile(client, "f"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("client read after the hostile frames: %q, %v", got, err)
	}
}

// TestRemoteReadAtSplitsAboveMaxReadLen: no caller can trip the server's
// limit legitimately, because the client splits a larger buffer.
func TestRemoteReadAtSplitsAboveMaxReadLen(t *testing.T) {
	srv, client := newPair(t, 0, 0)
	payload := make([]byte, maxReadLen+maxReadLen/2+13)
	rand.New(rand.NewSource(3)).Read(payload)
	if err := vfs.WriteFile(client, "big", payload); err != nil {
		t.Fatal(err)
	}
	f, err := client.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	before := srv.Stats().ReadOps
	got := make([]byte, len(payload)+100) // past EOF: the last chunk reports it
	n, err := f.ReadAt(got, 0)
	if n != len(payload) || err != io.EOF || !bytes.Equal(got[:n], payload) {
		t.Fatalf("ReadAt = (%d, %v), want (%d, EOF) and the payload", n, err, len(payload))
	}
	if ops := srv.Stats().ReadOps - before; ops != 2 {
		t.Fatalf("%d server reads for a %d-byte buffer, want 2 (maxReadLen = %d)", ops, len(got), maxReadLen)
	}
}
