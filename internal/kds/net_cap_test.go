package kds

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"shield/internal/netretry"
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

// TestServerDropsEndlessMessage: a peer streaming 64 MiB of one JSON string
// used to make a KDS replica buffer all of it. The server now drops the
// connection at the message cap, having allocated a small multiple of it.
func TestServerDropsEndlessMessage(t *testing.T) {
	srv, err := NewServer(NewStore(DefaultPolicy()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	before := totalAlloc()
	sent, _ := flood(conn, `{"op":"fetch","key_id":"`)
	// Dropped, not merely ignored: the read fails instead of timing out.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := conn.Read(make([]byte, 1)); err == nil || netretry.IsTimeout(err) {
		t.Fatalf("server kept the connection after %d bytes: %v", sent, err)
	}
	if grew := totalAlloc() - before; grew > 64*maxMessage {
		t.Fatalf("server allocated %d bytes for a message capped at %d", grew, maxMessage)
	}
}

// TestClientDropsEndlessReply is the same attack from a rogue or broken
// replica: the client gives up on the reply at the cap, typed, on every
// attempt, and allocates a small multiple of the cap doing so.
func TestClientDropsEndlessReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type outcome struct {
		sent int
		err  error
	}
	floods := make(chan outcome, 16) // one per attempt the client makes; it makes 2
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
					return
				}
				sent, err := flood(conn, `{"ok":true,"key_id":"`)
				floods <- outcome{sent, err}
			}()
		}
	}()
	c := NewClientConfig("compute-1", ClientConfig{MaxAttempts: 2, Policy: netretry.Policy{BackoffBase: time.Millisecond, RequestTimeout: 30 * time.Second}}, ln.Addr().String())
	defer c.Close()
	before := totalAlloc()
	_, err = c.FetchDEK("dek-x")
	if err == nil || !strings.Contains(err.Error(), netretry.ErrMessageTooLarge.Error()) {
		t.Fatalf("FetchDEK = %v, want the message-cap error", err)
	}
	if errors.Is(err, ErrUnknownKey) {
		t.Fatalf("an endless reply was read as an answer: %v", err)
	}
	for i := 0; i < 2; i++ {
		if o := <-floods; o.err == nil || o.sent >= floodBytes/2 {
			t.Fatalf("attempt %d: client read %d bytes of an endless reply (err %v)", i, o.sent, o.err)
		}
	}
	if grew := totalAlloc() - before; grew > 64*maxMessage {
		t.Fatalf("client allocated %d bytes for replies capped at %d", grew, maxMessage)
	}
}
