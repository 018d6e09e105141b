package compactsvc

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"shield/internal/netretry"
	"shield/internal/vfs"
)

const floodBytes = 64 << 20

// flood streams prefix and then floodBytes of 'a' with no newline into conn,
// stopping early when the peer drops the connection. It returns how much the
// peer let through.
func flood(conn net.Conn, prefix string) (sent int, err error) {
	if _, err := conn.Write([]byte(prefix)); err != nil {
		return 0, err
	}
	chunk := bytes.Repeat([]byte("a"), 64<<10)
	for sent < floodBytes {
		conn.SetWriteDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		n, err := conn.Write(chunk)
		sent += n
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestOrchestratorDropsEndlessMessage: a peer streaming 64 MiB of one JSON
// string used to make the orchestrator (which runs inside the compute node)
// buffer all of it. It now drops the connection at the message cap, having
// allocated a small multiple of it.
func TestOrchestratorDropsEndlessMessage(t *testing.T) {
	orch, err := NewOrchestrator(vfs.NewMem(), "127.0.0.1:0", OrchestratorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()
	conn, err := net.Dial("tcp", orch.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	before := totalAlloc()
	sent, _ := flood(conn, `{"op":"poll","worker":"`)
	// Dropped, not merely ignored: the read fails instead of timing out.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := conn.Read(make([]byte, 1)); err == nil || netretry.IsTimeout(err) {
		t.Fatalf("orchestrator kept the connection after %d bytes: %v", sent, err)
	}
	if grew := totalAlloc() - before; grew > 8*maxMessage {
		t.Fatalf("orchestrator allocated %d bytes for a message capped at %d", grew, maxMessage)
	}
}

// TestWorkerDropsEndlessReply is the same attack on a worker from whatever
// answers at the orchestrator's address: the worker gives up on the reply at
// the cap and redials, allocating a small multiple of the cap per round.
func TestWorkerDropsEndlessReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type outcome struct {
		sent int
		err  error
	}
	first := make(chan outcome, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			return
		}
		sent, err := flood(conn, `{"err":"`)
		first <- outcome{sent, err}
	}()
	before := totalAlloc()
	w := NewWorker(vfs.NewMem(), nil, "w", ln.Addr().String(), WorkerConfig{Policy: netretry.Policy{RequestTimeout: 30 * time.Second}})
	defer w.Close()
	if o := <-first; o.err == nil || o.sent >= floodBytes/2 {
		t.Fatalf("worker read %d bytes of an endless reply (err %v)", o.sent, o.err)
	}
	if grew := totalAlloc() - before; grew > 8*maxMessage {
		t.Fatalf("worker allocated %d bytes for a reply capped at %d", grew, maxMessage)
	}
}
