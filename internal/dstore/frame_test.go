package dstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"shield/internal/netretry"
	"shield/internal/vfs"
)

// wire is a hand-driven connection to a storage node: the bytes a foreign or
// hostile client can send, frame by frame.
type wire struct {
	t    *testing.T
	conn net.Conn
	fr   frameReader
}

func dialWire(t *testing.T, addr string) *wire {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	w := &wire{t: t, conn: conn, fr: frameReader{r: bufio.NewReader(conn)}}
	w.write(preamble[:])
	return w
}

func (w *wire) write(b []byte) {
	w.t.Helper()
	if _, err := w.conn.Write(b); err != nil {
		w.t.Fatal(err)
	}
}

// call sends req and returns the node's reply.
func (w *wire) call(req Request) Response {
	w.t.Helper()
	w.write(append(appendRequest(nil, &req), req.Data...))
	var resp Response
	if err := readResponse(&w.fr, &resp, nil); err != nil {
		w.t.Fatalf("%+v: no reply (server gone?): %v", req, err)
	}
	return resp
}

// fakeServer speaks the wire protocol and answers every request with
// answer, so a test can put any reply in front of a real client. It returns
// the address and a count of the connections it accepted.
func fakeServer(t *testing.T, answer func(*Request) []byte) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				fr := frameReader{r: bufio.NewReader(conn)}
				if _, err := conn.Write(preamble[:]); err != nil {
					return
				}
				var data []byte
				for {
					req, err := readRequest(&fr, &data)
					if err != nil {
						return
					}
					if _, err := conn.Write(answer(&req)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), &conns
}

// replyFrame is the complete frame of resp.
func replyFrame(resp Response) []byte {
	out, err := appendResponse(nil, &resp)
	if err != nil {
		panic(err)
	}
	return append(out, resp.Data...)
}

// head is a frame head declaring metaLen and dataLen.
func head(metaLen, dataLen uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, metaLen), dataLen)
}

// frameTyped reports whether err is one of the verdicts a frame decoder may
// give: a clean end between frames, a cut one inside a frame, a frame over
// the cap, or a frame that contradicts itself.
func frameTyped(err error) bool {
	return err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, netretry.ErrMessageTooLarge) || errors.Is(err, errFrame)
}

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func hostileRequests() map[string][]byte {
	valid := appendRequest(nil, &Request{Op: OpOpen, Name: "f"})
	metaLen := len(valid) - frameHead

	nameOverrun := bytes.Clone(valid)
	binary.LittleEndian.PutUint16(nameOverrun[frameHead+1+8+8+8+8:], 1000) // name length

	unknownOp := bytes.Clone(valid)
	unknownOp[frameHead] = 99
	retiredOp := bytes.Clone(valid)
	retiredOp[frameHead] = byte(opRetired)

	truncated := append(head(uint32(metaLen), 1<<20), valid[frameHead:]...)
	truncated = append(truncated, make([]byte, 100)...)

	return map[string][]byte{
		"declares 64 MiB":        append(append(preamble[:], head(uint32(metaLen), 64<<20)...), valid[frameHead:]...),
		"truncated":              append(preamble[:], truncated...),
		"name overruns frame":    append(preamble[:], nameOverrun...),
		"unknown op":             append(preamble[:], unknownOp...),
		"retired digest op":      append(preamble[:], retiredOp...),
		"gob-speaking client":    []byte(gobRequest),
		"stray bytes after meta": append(append(preamble[:], head(uint32(metaLen+1), 0)...), append(valid[frameHead:], 0)...),
	}
}

func hostileReplies() map[string][]byte {
	infos := replyFrame(Response{Infos: []vfs.FileInfo{{Name: "x", Size: 1}}})
	binary.LittleEndian.PutUint32(infos[frameHead+1+8+8+8+2:], 1<<30) // count
	flags := replyFrame(Response{})
	flags[frameHead] = 0x80
	return map[string][]byte{
		"Infos count larger than frame": infos,
		"reply declares 64 MiB":         append(head(0, 64<<20), make([]byte, 64)...),
		"unknown reply flags":           flags,
	}
}

// TestHostileFramesDropPeer: whatever a peer sends, the decoder gives a typed
// error, the connection is dropped, what the bytes made the receiver
// allocate follows the bytes actually sent (never a declared length), and
// the next connection is served. Hostile requests go to a real node;
// hostile replies to a real client from a fake node.
func TestHostileFramesDropPeer(t *testing.T) {
	srv, client := newPair(t, 0, 0)
	payload := []byte("served after the hostile frames")
	if err := vfs.WriteFile(client, "f", payload); err != nil {
		t.Fatal(err)
	}
	budget := func(sent []byte) uint64 { return uint64(2*len(sent)) + 64<<10 }

	for name, raw := range hostileRequests() {
		t.Run(name, func(t *testing.T) {
			// The verdict of the node's own loop, on an in-memory pipe.
			var err error
			cl, sv := net.Pipe()
			go func() {
				cl.Write(raw) //nolint:errcheck // the node may hang up first
				cl.Close()
			}()
			if n := allocated(func() { err = srv.serve(sv) }); n > budget(raw) {
				t.Errorf("%d bytes allocated for %d sent", n, len(raw))
			}
			sv.Close()
			if !frameTyped(err) && !errors.Is(err, errPreamble) || err == io.EOF {
				t.Fatalf("serve ended with %v, want a typed frame error", err)
			}

			// Over TCP: no reply, the connection closed, the node still serving.
			conn, derr := net.Dial("tcp", srv.Addr())
			if derr != nil {
				t.Fatal(derr)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
			conn.Write(raw)                                    //nolint:errcheck
			conn.(*net.TCPConn).CloseWrite()                   //nolint:errcheck
			if n, rerr := conn.Read(make([]byte, 64)); n != 0 || rerr == nil || netretry.IsTimeout(rerr) {
				t.Fatalf("node answered %d bytes (%v), want the connection dropped", n, rerr)
			}
			w := dialWire(t, srv.Addr())
			open := w.call(Request{Op: OpOpen, Name: "f"})
			if got := w.call(Request{Op: OpReadAt, Handle: open.Handle, Len: len(payload)}); got.Err != "" || !bytes.Equal(got.Data, payload) {
				t.Fatalf("next connection: Err=%q data=%q", got.Err, got.Data)
			}
		})
	}

	for name, raw := range hostileReplies() {
		t.Run(name, func(t *testing.T) {
			var resp Response
			var err error
			fr := frameReader{r: bufio.NewReader(bytes.NewReader(raw)), greeted: true}
			if n := allocated(func() { err = readResponse(&fr, &resp, nil) }); n > budget(raw) {
				t.Errorf("%d bytes allocated for %d received", n, len(raw))
			}
			if !frameTyped(err) || err == io.EOF {
				t.Fatalf("readResponse = %v, want a typed frame error", err)
			}

			// A real client drops each connection that brought such a reply
			// and redials for the next attempt.
			addr, conns := fakeServer(t, func(*Request) []byte { return raw })
			cfg := fastDStoreConfig(1)
			c, derr := DialConfig(addr, cfg)
			if derr != nil {
				t.Fatal(derr)
			}
			defer c.Close()
			if _, err := c.Stat("x"); !frameTyped(err) || !netretry.IsTransport(err) {
				t.Fatalf("Stat = %v, want a typed frame error, as a transport failure", err)
			}
			if got := conns.Load(); got != int64(cfg.MaxAttempts) {
				t.Fatalf("fake node saw %d connections, want one per attempt (%d)", got, cfg.MaxAttempts)
			}
		})
	}
}

// FuzzDstoreFrame: on any bytes, read as a request stream and as a reply
// stream past the preamble, the decoders return a typed error or a value that re-encodes to
// exactly the bytes they consumed; they never panic, and what they allocate
// follows the input's length, not the lengths it declares.
func FuzzDstoreFrame(f *testing.F) {
	for _, req := range sampleRequests(rand.New(rand.NewSource(1)), 8) {
		f.Add(append(appendRequest(nil, &req), req.Data...))
	}
	for _, resp := range sampleResponses(rand.New(rand.NewSource(2)), 8) {
		f.Add(replyFrame(resp))
	}
	for _, raw := range hostileRequests() {
		if bytes.HasPrefix(raw, preamble[:]) {
			f.Add(raw[len(preamble):])
		}
	}
	for _, raw := range hostileReplies() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		budget := uint64(16*len(in)) + 64<<10
		for _, request := range []bool{true, false} {
			src := bytes.NewReader(in)
			fr := frameReader{r: bufio.NewReader(src), greeted: true}
			var enc []byte
			var err error
			n := allocated(func() {
				if request {
					var data []byte
					var req Request
					if req, err = readRequest(&fr, &data); err == nil {
						enc = append(appendRequest(nil, &req), req.Data...)
					}
				} else {
					var resp Response
					if err = readResponse(&fr, &resp, nil); err == nil {
						if enc, err = appendResponse(nil, &resp); err == nil {
							enc = append(enc, resp.Data...)
						}
					}
				}
			})
			if n > budget {
				t.Fatalf("request=%v: %d bytes allocated for %d of input", request, n, len(in))
			}
			if err != nil {
				if !frameTyped(err) {
					t.Fatalf("request=%v: untyped error %v", request, err)
				}
				continue
			}
			consumed := in[:len(in)-src.Len()-fr.r.Buffered()]
			if !bytes.Equal(enc, consumed) {
				t.Fatalf("request=%v: re-encoded\n%x\nconsumed\n%x", request, enc, consumed)
			}
		}
	})
}

// The samples are the fuzz seeds, which the fuzzer mutates byte by byte, so
// every name and data field is at most a few dozen bytes.

// gobRequest is what a gob encoder sent for Request{Op: OpOpen, Name: "f"}
// on the wire the binary frame replaced.
const gobRequest = "Z\x7f\x03\x01\x01\aRequest\x01\xff\x80\x00\x01\b\x01\x02Op\x01\x06\x00\x01\x04Name\x01\f\x00" +
	"\x01\x05Name2\x01\f\x00\x01\x06Handle\x01\x06\x00\x01\x03Off\x01\x04\x00\x01\x03Len\x01\x04\x00" +
	"\x01\x04Data\x01\n\x00\x01\x03Seq\x01\x06\x00\x00\x00\b\xff\x80\x01\x05\x01\x01f\x00"

func randName(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return ""
	}
	b := make([]byte, rng.Intn(40))
	rng.Read(b)
	return string(b)
}

func randData(rng *rand.Rand) []byte {
	if rng.Intn(3) == 0 {
		return nil
	}
	b := make([]byte, rng.Intn(40)+1)
	rng.Read(b)
	return b
}

// sampleOp is a random op the node serves.
func sampleOp(rng *rand.Rand) Op {
	if op := Op(rng.Intn(int(OpSum)) + 1); op != opRetired {
		return op
	}
	return OpSum
}

func sampleRequests(rng *rand.Rand, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{
			Op: sampleOp(rng), Name: randName(rng), Name2: randName(rng),
			Handle: rng.Uint64(), Off: int64(rng.Uint64()), Len: int(int64(rng.Uint64())), Seq: rng.Uint64(),
			Data: randData(rng),
		}
	}
	return out
}

func sampleResponses(rng *rand.Rand, n int) []Response {
	out := make([]Response, n)
	for i := range out {
		var infos []vfs.FileInfo
		for j := rng.Intn(4) * rng.Intn(4); j > 0; j-- {
			infos = append(infos, vfs.FileInfo{Name: randName(rng), Size: int64(rng.Uint64())})
		}
		out[i] = Response{
			Err: randName(rng), Handle: rng.Uint64(), N: int(int64(rng.Uint64())), Size: int64(rng.Uint64()),
			Data: randData(rng), Infos: infos, EOF: rng.Intn(2) == 0,
		}
	}
	return out
}
