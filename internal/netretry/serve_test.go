package netretry

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestListenerCloseDisconnectsAndWaits: Close fails the read every handler
// is blocked in, returns only after all of them have, and is idempotent.
func TestListenerCloseDisconnectsAndWaits(t *testing.T) {
	started := make(chan struct{}, 4)
	returned := make(chan struct{}, 4)
	l, err := Listen("127.0.0.1:0", func(conn net.Conn) {
		started <- struct{}{}
		io.Copy(io.Discard, conn) //nolint:errcheck // returns when Close disconnects
		returned <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	var clients []net.Conn
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
		<-started
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(returned) != 4 {
		t.Fatalf("Close returned with %d of 4 handlers done", len(returned))
	}
	for _, c := range clients {
		c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if _, err := c.Read(make([]byte, 1)); err == nil || IsTimeout(err) {
			t.Fatalf("client still connected after Close: %v", err)
		}
	}
	if _, err := net.DialTimeout("tcp", l.Addr(), time.Second); err == nil {
		t.Fatal("still accepting after Close")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestJSONConnCapsOneMessage: the allowance is per message, a message within
// it decodes however many preceded it, and one past it fails typed.
func TestJSONConnCapsOneMessage(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		w := NewJSONConn(a, 1<<20)
		for i := 0; i < 5; i++ {
			w.Send(map[string]string{"v": strings.Repeat("x", 600)}) //nolint:errcheck
		}
		w.Send(map[string]string{"v": strings.Repeat("x", 4000)}) //nolint:errcheck
	}()
	r := NewJSONConn(b, 1024)
	for i := 0; i < 5; i++ {
		var m map[string]string
		if err := r.Recv(&m); err != nil || len(m["v"]) != 600 {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	var m map[string]string
	if err := r.Recv(&m); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("oversized message: %v, want ErrMessageTooLarge", err)
	}
}
