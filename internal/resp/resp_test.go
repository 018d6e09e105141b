package resp

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

func readAll(t *testing.T, r *Reader) [][]string {
	t.Helper()
	var cmds [][]string
	for {
		args, err := r.ReadCommand()
		if errors.Is(err, io.EOF) {
			return cmds
		}
		if err != nil {
			t.Fatalf("ReadCommand: %v", err)
		}
		var s []string
		for _, a := range args {
			s = append(s, string(a))
		}
		cmds = append(cmds, s)
	}
}

func TestReadCommandForms(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want [][]string
	}{
		{"array", "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n", [][]string{{"SET", "k", "v"}}},
		{"inline", "PING\r\n", [][]string{{"PING"}}},
		{"inline-args", "GET  some-key\r\n", [][]string{{"GET", "some-key"}}},
		{"inline-bare-lf", "PING\n", [][]string{{"PING"}}},
		{"blank-lines-skipped", "\r\n\r\nPING\r\n", [][]string{{"PING"}}},
		{"empty-array-skipped", "*0\r\n*1\r\n$4\r\nPING\r\n", [][]string{{"PING"}}},
		{"null-array-skipped", "*-1\r\nPING\r\n", [][]string{{"PING"}}},
		{"empty-bulk-arg", "*2\r\n$3\r\nGET\r\n$0\r\n\r\n", [][]string{{"GET", ""}}},
		{"binary-arg", "*2\r\n$3\r\nGET\r\n$3\r\n\x00\r\t\r\n", [][]string{{"GET", "\x00\r\t"}}},
		{
			"pipelined-mixed",
			"*1\r\n$4\r\nPING\r\nGET k\r\n*2\r\n$3\r\nGET\r\n$1\r\nx\r\n",
			[][]string{{"PING"}, {"GET", "k"}, {"GET", "x"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := readAll(t, NewReader(strings.NewReader(tc.in)))
			if len(got) != len(tc.want) {
				t.Fatalf("got %d commands %v, want %d", len(got), got, len(tc.want))
			}
			for i := range got {
				if strings.Join(got[i], "|") != strings.Join(tc.want[i], "|") {
					t.Fatalf("command %d: got %v want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// Partial reads: the same streams must parse identically when the
// underlying reader returns one byte at a time.
func TestReadCommandPartialReads(t *testing.T) {
	in := "*3\r\n$3\r\nSET\r\n$5\r\nhello\r\n$5\r\nworld\r\n*1\r\n$4\r\nPING\r\nGET k\r\n"
	r := NewReader(iotest.OneByteReader(strings.NewReader(in)))
	got := readAll(t, r)
	want := [][]string{{"SET", "hello", "world"}, {"PING"}, {"GET", "k"}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range got {
		if strings.Join(got[i], "|") != strings.Join(want[i], "|") {
			t.Fatalf("command %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	cases := []struct {
		name        string
		in          string
		recoverable bool
	}{
		{"bad-array-len", "*abc\r\nPING\r\n", true},
		{"huge-inline-argc", "*2000000\r\n", false}, // over MaxArrayLen: elements in flight
		{"bad-bulk-type", "*1\r\n:5\r\n", false},
		{"bad-bulk-len", "*1\r\n$abc\r\n", false},
		{"negative-bulk-len", "*1\r\n$-5\r\n", false},
		{"oversized-bulk", "*1\r\n$999999999\r\n", false},
		{"missing-crlf", "*1\r\n$3\r\nabcde\r\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(tc.in))
			_, err := r.ReadCommand()
			if !isProtocolError(err) {
				t.Fatalf("want protocol error, got %v", err)
			}
			if IsRecoverable(err) != tc.recoverable {
				t.Fatalf("recoverable=%v, want %v (%v)", IsRecoverable(err), tc.recoverable, err)
			}
		})
	}
}

// A recoverable error must leave the reader positioned at the next line.
func TestRecoverableErrorResyncs(t *testing.T) {
	r := NewReader(strings.NewReader("*zz\r\nPING\r\n"))
	if _, err := r.ReadCommand(); !IsRecoverable(err) {
		t.Fatalf("want recoverable protocol error, got %v", err)
	}
	args, err := r.ReadCommand()
	if err != nil || len(args) != 1 || string(args[0]) != "PING" {
		t.Fatalf("after resync: %v %v", args, err)
	}
}

func TestCustomBulkLimit(t *testing.T) {
	r := NewReader(strings.NewReader("*1\r\n$100\r\n" + strings.Repeat("x", 100) + "\r\n"))
	r.MaxBulkLen = 10
	if _, err := r.ReadCommand(); !isProtocolError(err) || IsRecoverable(err) {
		t.Fatalf("want fatal protocol error, got %v", err)
	}
}

func TestOversizedInlineLine(t *testing.T) {
	r := NewReader(strings.NewReader(strings.Repeat("a", 1<<20) + "\r\nPING\r\n"))
	if _, err := r.ReadCommand(); !isProtocolError(err) || IsRecoverable(err) {
		t.Fatalf("want fatal protocol error for giant line, got %v", err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Status("OK"); err != nil {
		t.Fatal(err)
	}
	w.Error("ERR boom\r\nwith newline") //nolint:errcheck
	w.Int(-42)                          //nolint:errcheck
	w.Bulk([]byte("hi\r\nthere"))       //nolint:errcheck
	w.Null()                            //nolint:errcheck
	w.ArrayHeader(2)                    //nolint:errcheck
	w.Bulk([]byte("a"))                 //nolint:errcheck
	w.Int(7)                            //nolint:errcheck
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	v, err := r.ReadReply()
	if err != nil || v.Kind != KindStatus || string(v.Str) != "OK" {
		t.Fatalf("status: %+v %v", v, err)
	}
	v, _ = r.ReadReply()
	if v.Kind != KindError || strings.Contains(string(v.Str), "\n") {
		t.Fatalf("error reply kept newline: %q", string(v.Str))
	}
	v, _ = r.ReadReply()
	if v.Kind != KindInt || v.Int != -42 {
		t.Fatalf("int: %+v", v)
	}
	v, _ = r.ReadReply()
	if v.Kind != KindBulk || string(v.Str) != "hi\r\nthere" {
		t.Fatalf("bulk: %+v", v)
	}
	v, _ = r.ReadReply()
	if v.Kind != KindBulk || !v.Null {
		t.Fatalf("null: %+v", v)
	}
	v, err = r.ReadReply()
	if err != nil || v.Kind != KindArray || len(v.Array) != 2 ||
		string(v.Array[0].Str) != "a" || v.Array[1].Int != 7 {
		t.Fatalf("array: %+v %v", v, err)
	}
}

// The command writer must emit frames the command reader accepts verbatim.
func TestCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Command([]byte("SET"), []byte("k"), []byte("binary\x00\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	args, err := NewReader(&buf).ReadCommand()
	if err != nil || len(args) != 3 || string(args[2]) != "binary\x00\r\n" {
		t.Fatalf("round trip: %q %v", args, err)
	}
}

// Next returns only what is complete in the window, as views that a later
// Fill may overwrite; a partial command stays put until its bytes arrive.
func TestNextViewsAndPartialTail(t *testing.T) {
	src := &chunked{data: []byte("PING\r\n*2\r\n$3\r\nGET\r\n$5\r\nhel" + "lo\r\nQUIT\r\n"), cuts: []byte{27, 255}}
	r := NewReader(src)
	if args, err := r.Next(); args != nil || err != nil {
		t.Fatalf("Next on an empty window = %q, %v", args, err)
	}
	if err := r.Fill(); err != nil {
		t.Fatal(err)
	}
	args, err := r.Next()
	if err != nil || len(args) != 1 || string(args[0]) != "PING" {
		t.Fatalf("first command = %q, %v", args, err)
	}
	if args, err := r.Next(); args != nil || err != nil {
		t.Fatalf("Next on a partial command = %q, %v; want nil, nil", args, err)
	}
	if r.w == r.r {
		t.Fatal("the partial command was consumed")
	}
	if err := r.Fill(); err != nil {
		t.Fatal(err)
	}
	get, err := r.Next()
	if err != nil || len(get) != 2 || string(get[1]) != "hello" {
		t.Fatalf("completed command = %q, %v", get, err)
	}
	quit, err := r.Next()
	if err != nil || len(quit) != 1 || string(quit[0]) != "QUIT" {
		t.Fatalf("third command = %q, %v", quit, err)
	}
	// Both vectors came out of one window and stay valid side by side.
	if string(get[0]) != "GET" || string(get[1]) != "hello" {
		t.Fatalf("earlier view changed under a later Next: %q", get)
	}
	if err := r.Fill(); err != io.EOF {
		t.Fatalf("Fill at end of stream = %v, want io.EOF", err)
	}
}

// failAfter yields its bytes and then fails, so a parser that waits for the
// rest of a frame returns instead of blocking.
type failAfter struct{ data []byte }

var errCut = errors.New("connection cut")

func (f *failAfter) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, errCut
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// A declared bulk length reserves memory only as bytes arrive: the header
// of a 64 MiB argument alone must not make the reader allocate 64 MiB.
func TestDeclaredBulkLengthReservesNothing(t *testing.T) {
	r := NewReader(&failAfter{data: []byte("*2\r\n$3\r\nSET\r\n$67108864\r\nonly these bytes")})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.ReadCommand()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errCut) {
		t.Fatalf("ReadCommand = %v, want the source's error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a declared 64 MiB bulk with 16 bytes sent allocated %d bytes", got)
	}
}

// A window grown for one large value shrinks back once it is drained, and
// while the value is still arriving the parser does not rescan it per read.
func TestWindowGrowsWithBytesAndShrinksBack(t *testing.T) {
	big := bytes.Repeat([]byte("v"), 300<<10)
	var in bytes.Buffer
	w := NewWriter(&in)
	w.Command([]byte("SET"), []byte("k"), big) //nolint:errcheck
	w.Command([]byte("PING"))                  //nolint:errcheck
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&chunked{data: in.Bytes(), cuts: []byte{255}}) // 8 KiB pieces
	args, err := r.ReadCommand()
	if err != nil || len(args) != 3 || !bytes.Equal(args[2], big) {
		t.Fatalf("large SET: %d args, %v", len(args), err)
	}
	if len(r.buf) < len(big) || len(r.buf) > 4*len(big) {
		t.Fatalf("window is %d bytes after a %d-byte value", len(r.buf), len(big))
	}
	if args, err = r.ReadCommand(); err != nil || string(args[0]) != "PING" {
		t.Fatalf("command after the large one: %q, %v", args, err)
	}
	if _, err := r.ReadCommand(); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}
	if len(r.buf) != bufSize {
		t.Fatalf("drained window kept %d bytes, want %d", len(r.buf), bufSize)
	}
}

// countingWriter records the size of every Write it receives.
type countingWriter struct{ writes []int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return len(p), nil
}

// shortWriter accepts half of every Write without saying why.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return len(p) / 2, nil }

// A batch of replies leaves in one Write at Flush; only a buffer past
// maxRetained is written out early, and a write error sticks.
func TestWriterOneWritePerFlush(t *testing.T) {
	var dst countingWriter
	w := NewWriter(&dst)
	for i := 0; i < 16; i++ {
		w.Bulk(make([]byte, 256)) //nolint:errcheck
		w.Status("OK")            //nolint:errcheck
	}
	if len(dst.writes) != 0 {
		t.Fatalf("%d writes before Flush", len(dst.writes))
	}
	if err := w.Flush(); err != nil || len(dst.writes) != 1 || dst.writes[0] != 16*(6+256+2+5) {
		t.Fatalf("Flush: %v, writes %v", err, dst.writes)
	}
	if err := w.Flush(); err != nil || len(dst.writes) != 1 {
		t.Fatalf("empty Flush wrote: %v, writes %v", err, dst.writes)
	}
	w.Bulk(make([]byte, maxRetained)) //nolint:errcheck
	if len(dst.writes) != 2 {
		t.Fatalf("a %d-byte reply stayed buffered: writes %v", maxRetained, dst.writes)
	}

	bad := NewWriter(shortWriter{})
	bad.Status("a longer reply") //nolint:errcheck
	if err := bad.Flush(); err != io.ErrShortWrite {
		t.Fatalf("short write: %v", err)
	}
	if err := bad.Status("OK"); err != io.ErrShortWrite {
		t.Fatalf("error did not stick: %v", err)
	}
}

// ReadReply must reject input that nests arrays without bound instead of
// recursing on it.
func TestReplyNestingBounded(t *testing.T) {
	r := NewReader(strings.NewReader(strings.Repeat("*1\r\n", 100) + ":1\r\n"))
	if _, err := r.ReadReply(); !isProtocolError(err) {
		t.Fatalf("100 nested arrays: %v, want a protocol error", err)
	}
	r = NewReader(strings.NewReader(strings.Repeat("*1\r\n", maxReplyDepth) + ":1\r\n"))
	if v, err := r.ReadReply(); err != nil || len(v.Array) != 1 {
		t.Fatalf("%d nested arrays: %+v, %v", maxReplyDepth, v, err)
	}
}

// isProtocolError reports whether err is any protocol error (as opposed to
// an I/O error on the underlying stream).
func isProtocolError(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe)
}
