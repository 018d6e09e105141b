//go:build !race

package resp

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"
)

// Allocation counts mean nothing under the race detector, hence the build
// tag; `make io-path-check` runs these without -race.

// allocsPer returns the heap allocations per call of fn, as a fraction:
// testing.AllocsPerRun rounds down to a whole number.
func allocsPer(runs int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// cannedConn is a server that answers every flushed pipeline with the same
// canned replies. Deadlines are accepted and ignored.
type cannedConn struct {
	net.Conn // nil: only the methods below are called
	replies  []byte
	unread   []byte
}

func (c *cannedConn) Write(p []byte) (int, error) {
	c.unread = c.replies
	return len(p), nil
}

func (c *cannedConn) Read(p []byte) (int, error) {
	n := copy(p, c.unread[:min(len(c.unread), 1000)]) // replies arrive in several reads
	c.unread = c.unread[n:]
	return n, nil
}

func (c *cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }

// TestClientPipelineAllocs pins the client half of a served round trip: 16
// commands sent, flushed and their replies received allocate only the eight
// bulk values handed to the caller — no per-argument, per-status or
// per-deadline cost.
func TestClientPipelineAllocs(t *testing.T) {
	key, val := []byte("user0000000000000042"), bytes.Repeat([]byte("v"), 256)
	var replies bytes.Buffer
	w := NewWriter(&replies)
	for i := 0; i < 8; i++ {
		w.Status("OK") //nolint:errcheck
		w.Bulk(val)    //nolint:errcheck
	}
	w.Flush() //nolint:errcheck
	cl := NewClient(&cannedConn{replies: replies.Bytes()})
	cl.Timeout = time.Minute

	roundTrip := func() {
		for i := 0; i < 8; i++ {
			cl.Send([]byte("SET"), key, val) //nolint:errcheck
			cl.Send([]byte("GET"), key)      //nolint:errcheck
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			v, err := cl.Recv()
			if err != nil || (i%2 == 0) != (v.Kind == KindStatus) || (i%2 == 1 && !bytes.Equal(v.Str, val)) {
				t.Fatalf("reply %d: %+v, %v", i, v, err)
			}
		}
	}
	roundTrip()                                                 // grow the buffers
	if got := allocsPer(200, roundTrip); got < 8 || got > 8.1 { // the runtime itself allocates now and then
		t.Fatalf("a 16-command round trip allocated %.2f times, want 8 (the bulk values)", got)
	}
}

// TestReadCommandAllocs pins ReadCommand's price for its caller-owned
// result: one allocation per command (the argument bytes), whatever the
// argument count, plus a vector slab every couple of hundred arguments.
func TestReadCommandAllocs(t *testing.T) {
	var canned bytes.Buffer
	w := NewWriter(&canned)
	for i := 0; i < 8; i++ {
		w.Command([]byte("GET"), []byte("user0000000000000042"))                    //nolint:errcheck
		w.Command([]byte("SET"), []byte("user0000000000000042"), make([]byte, 256)) //nolint:errcheck
	}
	w.Flush() //nolint:errcheck
	src := bytes.NewReader(nil)
	r := NewReader(src)
	pipeline := func() {
		src.Reset(canned.Bytes())
		for i := 0; i < 16; i++ {
			if args, err := r.ReadCommand(); err != nil || len(args) != 2+i%2 {
				t.Fatalf("command %d: %q, %v", i, args, err)
			}
		}
	}
	pipeline()
	if got := allocsPer(200, pipeline) / 16; got < 1 || got > 1.2 {
		t.Fatalf("ReadCommand allocated %.2f times per command, want 1 (+ slab refills)", got)
	}
}
