// Package resp implements the Redis wire protocol (RESP2) for the SHIELD
// serving front-end: a command reader that accepts both the array-of-bulk
// form pipelined clients send and the inline form humans type over netcat,
// a reply writer for the five RESP reply types, and a pipelined client used
// by shield-bench's network mode and the integration tests.
//
// Protocol errors are split into two classes. Errors detected at a clean
// line boundary (a malformed inline command, a bad array header) are
// recoverable: the caller replies -ERR and keeps reading — the next command
// starts at the next line. Errors inside a frame (a bad element type, a
// corrupt or oversized bulk length) leave the stream position ambiguous, so
// they are fatal: the caller replies and then closes, exactly like Redis.
//
// Buffer ownership. The Reader parses in place in one growable window.
// Next returns a command as views into that window; the views die at the
// next Fill. ReadCommand and ReadReply copy out of the window, and what they
// return stays caller-owned.
package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Default parser limits. They bound how much memory one connection can
// demand before the server has validated anything.
const (
	DefaultMaxBulkLen  = 64 << 20 // one argument
	DefaultMaxArrayLen = 1024     // arguments per command
	maxInlineLen       = 64 << 10 // one line: an inline command or a frame header
	maxReplyDepth      = 32       // nested array replies

	// bufSize is what a Reader window and a Writer buffer start at, enough
	// for a deep pipeline of small commands in one read or write.
	// maxRetained is what they may keep: a buffer grown past it for one
	// large value is dropped once drained, and a Writer holding that much
	// writes it out without waiting for Flush.
	bufSize     = 16 << 10
	maxRetained = 64 << 10
)

// ProtocolError describes malformed input from the peer. Recoverable
// reports whether the reader consumed through a line boundary and can keep
// parsing the connection; when false the connection must be closed after
// replying.
type ProtocolError struct {
	Msg         string
	Recoverable bool
}

func (e *ProtocolError) Error() string { return "resp: protocol error: " + e.Msg }

// IsRecoverable reports whether err is a protocol error the connection can
// survive (reply -ERR, keep reading).
func IsRecoverable(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe) && pe.Recoverable
}

func protoErr(recoverable bool, format string, args ...any) error {
	return &ProtocolError{Msg: fmt.Sprintf(format, args...), Recoverable: recoverable}
}

// errShort is the parsers' internal verdict that the window ends inside the
// frame being parsed. It never leaves the package.
var errShort = errors.New("resp: frame continues past the window")

// Reader parses commands and replies from a RESP stream.
type Reader struct {
	src  io.Reader
	buf  []byte // the window; buf[r:w] is received and not yet consumed
	r, w int
	need int   // window length below which the frame at r is known to be short
	err  error // source error that arrived with data; the next Fill returns it

	argv [][]byte // views handed out by Next since the last Fill
	slab [][]byte // ReadCommand carves its caller-owned argument vectors from this

	// MaxBulkLen and MaxArrayLen bound a single argument and a single
	// command's argument count; both default when zero.
	MaxBulkLen  int
	MaxArrayLen int
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{src: r} }

func (r *Reader) maxBulk() int  { return limit(r.MaxBulkLen, DefaultMaxBulkLen) }
func (r *Reader) maxArray() int { return limit(r.MaxArrayLen, DefaultMaxArrayLen) }

func limit(set, def int) int {
	if set > 0 {
		return set
	}
	return def
}

// Fill reads once from the source into the window and invalidates every
// view Next has returned. Unconsumed bytes move to the front first. The
// window grows only when it is full, so memory follows the bytes a peer has
// actually sent, never the length it has merely declared; a window grown
// past maxRetained shrinks back once it is empty.
func (r *Reader) Fill() error {
	if err := r.err; err != nil {
		r.err = nil
		return err
	}
	r.argv = r.argv[:0]
	if r.r > 0 {
		r.w = copy(r.buf, r.buf[r.r:r.w])
		r.r = 0
	}
	switch {
	case r.w == len(r.buf):
		grown := make([]byte, max(bufSize, 2*len(r.buf)))
		copy(grown, r.buf[:r.w])
		r.buf = grown
	case r.w == 0 && len(r.buf) > maxRetained:
		r.buf = make([]byte, bufSize)
	}
	n, err := r.src.Read(r.buf[r.w:])
	if r.w += n; n > 0 {
		r.err, err = err, nil
	} else if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// readLine returns the line starting at win[pos] without its terminator,
// and the offset just past it. RESP terminates lines with CRLF; a bare LF is
// tolerated. A line of more than maxInlineLen bytes is a fatal protocol
// error.
func readLine(win []byte, pos int) ([]byte, int, error) {
	rest := win[pos:]
	if len(rest) > maxInlineLen {
		rest = rest[:maxInlineLen]
	}
	i := bytes.IndexByte(rest, '\n')
	if i < 0 {
		if len(rest) == maxInlineLen {
			return nil, 0, protoErr(false, "line exceeds %d bytes", maxInlineLen)
		}
		return nil, 0, errShort
	}
	line := rest[:i]
	if i > 0 && line[i-1] == '\r' {
		line = line[:i-1]
	}
	return line, pos + i + 1, nil
}

// atoi is strconv.ParseInt(string(b), 10, 64) without the conversion.
func atoi(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg, b = b[0] == '-', b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || n > (1<<63)/10 {
			return 0, false
		}
		if n = n*10 + d; n > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), n < 1<<63
}

// Next returns the next command that is complete in the window, as views
// into it: the argument vector and every argument are valid until the next
// Fill and must not be modified. It accepts the RESP array-of-bulk-strings
// form and the inline form, and skips empty inline lines and empty arrays,
// matching Redis. A nil command with a nil error means the window holds no
// complete command: call Fill. Next does no I/O, so its only errors are
// protocol errors; after a recoverable one it is positioned at the next
// line.
func (r *Reader) Next() ([][]byte, error) {
	for r.w > r.r && r.w-r.r >= r.need {
		start := len(r.argv)
		n, err := r.parseCommand(r.buf[r.r:r.w])
		if err == errShort {
			r.argv = r.argv[:start]
			return nil, nil
		}
		r.r, r.need = r.r+n, 0
		if err != nil {
			r.argv = r.argv[:start]
			return nil, err
		}
		if end := len(r.argv); end > start {
			return r.argv[start:end:end], nil
		}
	}
	return nil, nil
}

// parseCommand parses the frame at the start of win, appends its arguments
// to r.argv and returns the bytes it consumed (for a recoverable error: the
// offending line). On errShort it leaves in r.need the window length at
// which parsing again can get further.
func (r *Reader) parseCommand(win []byte) (int, error) {
	r.need = len(win) + 1
	start := len(r.argv)
	line, pos, err := readLine(win, 0)
	if err != nil {
		return 0, err
	}
	if win[0] != '*' {
		for i := 0; i < len(line); {
			for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
				i++
			}
			from := i
			for i < len(line) && line[i] != ' ' && line[i] != '\t' {
				i++
			}
			if i > from {
				r.argv = append(r.argv, line[from:i:i])
			}
		}
		if n := len(r.argv) - start; n > r.maxArray() {
			return pos, protoErr(true, "inline command has %d arguments (limit %d)", n, r.maxArray())
		}
		return pos, nil
	}
	argc, ok := atoi(line[1:])
	if !ok {
		// The full header line was consumed — safe to resync at the next
		// line, so this class is recoverable.
		return pos, protoErr(true, "invalid multibulk length %q", line[1:])
	}
	if argc > int64(r.maxArray()) {
		// The bulk frames are still in flight; resync is ambiguous.
		return 0, protoErr(false, "multibulk length %d exceeds limit %d", argc, r.maxArray())
	}
	for ; argc > 0; argc-- { // "*0" and "*-1": no command
		if line, pos, err = readLine(win, pos); err != nil {
			return 0, err
		}
		if len(line) == 0 || line[0] != '$' {
			return 0, protoErr(false, "expected bulk string, got %q", line)
		}
		n, ok := atoi(line[1:])
		if !ok || n < 0 {
			return 0, protoErr(false, "invalid bulk length %q", line[1:])
		}
		if n > int64(r.maxBulk()) {
			return 0, protoErr(false, "bulk length %d exceeds limit %d", n, r.maxBulk())
		}
		end := pos + int(n)
		if len(win) < end+2 {
			r.need = end + 2
			return 0, errShort
		}
		if win[end] != '\r' || win[end+1] != '\n' {
			return 0, protoErr(false, "bulk string missing CRLF terminator")
		}
		r.argv = append(r.argv, win[pos:end:end])
		pos = end + 2
	}
	return pos, nil
}

// ReadCommand returns the next command as its argument vector, reading from
// the source as needed. It is Next plus a copy: the returned slices are
// owned by the caller.
func (r *Reader) ReadCommand() ([][]byte, error) {
	for {
		views, err := r.Next()
		if err != nil {
			return nil, err
		}
		if views != nil {
			r.argv = r.argv[:len(r.argv)-len(views)]
			return r.own(views), nil
		}
		if err := r.Fill(); err != nil {
			return nil, err
		}
	}
}

// own copies a command out of the window with one allocation, the argument
// bytes. The vector is carved from a slab that is never reused, only
// replaced when used up, so it is as caller-owned as the bytes.
func (r *Reader) own(views [][]byte) [][]byte {
	if len(r.slab) < len(views) {
		r.slab = make([][]byte, max(len(views), 256))
	}
	args := r.slab[:len(views):len(views)]
	r.slab = r.slab[len(views):]
	total := 0
	for _, v := range views {
		total += len(v)
	}
	data := make([]byte, total)
	for i, v := range views {
		n := copy(data, v)
		args[i], data = data[:n:n], data[n:]
	}
	return args
}

// ---- Replies (client side) ----

// Kind tags a parsed reply value.
type Kind byte

// Reply kinds, matching the RESP type bytes.
const (
	KindStatus Kind = '+'
	KindError  Kind = '-'
	KindInt    Kind = ':'
	KindBulk   Kind = '$'
	KindArray  Kind = '*'
)

// Value is one parsed RESP reply.
type Value struct {
	Kind  Kind
	Str   []byte  // KindStatus, KindError, KindBulk; read-only for KindStatus
	Int   int64   // KindInt
	Null  bool    // null bulk ($-1) or null array (*-1)
	Array []Value // KindArray
}

// IsError reports whether the value is an -ERR style reply.
func (v Value) IsError() bool { return v.Kind == KindError }

// The two status replies this server sends. Every parsed "+OK" shares one
// slice, so that a pipeline of SET replies allocates nothing.
var statusOK, statusPONG = []byte("OK"), []byte("PONG")

// ReadReply parses one reply value (used by clients), reading from the
// source as needed.
func (r *Reader) ReadReply() (Value, error) {
	for {
		v, n, err := r.parseReply(r.buf[r.r:r.w], 0, 0)
		if err != errShort {
			if err == nil {
				r.r += n
			}
			return v, err
		}
		if err := r.Fill(); err != nil {
			return Value{}, err
		}
	}
}

// parseReply parses the reply at win[pos] and returns it with the offset
// just past it, or errShort.
func (r *Reader) parseReply(win []byte, pos, depth int) (Value, int, error) {
	line, pos, err := readLine(win, pos)
	if err != nil {
		return Value{}, 0, err
	}
	if len(line) == 0 {
		return Value{}, 0, protoErr(false, "empty reply line")
	}
	kind, line := Kind(line[0]), line[1:]
	switch kind {
	case KindStatus:
		switch string(line) {
		case "OK":
			return Value{Kind: kind, Str: statusOK}, pos, nil
		case "PONG":
			return Value{Kind: kind, Str: statusPONG}, pos, nil
		}
		return Value{Kind: kind, Str: bytes.Clone(line)}, pos, nil
	case KindError:
		return Value{Kind: kind, Str: bytes.Clone(line)}, pos, nil
	}
	n, ok := atoi(line)
	switch {
	case kind != KindInt && kind != KindBulk && kind != KindArray:
		return Value{}, 0, protoErr(false, "unknown reply type %q", byte(kind))
	case !ok:
		return Value{}, 0, protoErr(false, "invalid %c reply header %q", kind, line)
	case kind == KindInt:
		return Value{Kind: kind, Int: n}, pos, nil
	case n < 0:
		return Value{Kind: kind, Null: true}, pos, nil
	case kind == KindBulk:
		if n > int64(r.maxBulk()) {
			return Value{}, 0, protoErr(false, "bulk reply length %d exceeds limit %d", n, r.maxBulk())
		}
		end := pos + int(n)
		if len(win) < end+2 {
			return Value{}, 0, errShort
		}
		if win[end] != '\r' || win[end+1] != '\n' {
			return Value{}, 0, protoErr(false, "bulk reply missing CRLF terminator")
		}
		return Value{Kind: kind, Str: bytes.Clone(win[pos:end])}, end + 2, nil
	}
	if n > int64(r.maxArray()) {
		return Value{}, 0, protoErr(false, "array reply length %d exceeds limit %d", n, r.maxArray())
	}
	if depth == maxReplyDepth {
		return Value{}, 0, protoErr(false, "array reply nested deeper than %d", maxReplyDepth)
	}
	v := Value{Kind: kind, Array: make([]Value, 0, n)}
	for ; n > 0; n-- {
		var e Value
		if e, pos, err = r.parseReply(win, pos, depth+1); err != nil {
			return Value{}, 0, err
		}
		v.Array = append(v.Array, e)
	}
	return v, pos, nil
}

// ---- Writer ----

// Writer serializes RESP replies (and, for clients, commands) into one
// buffer and sends it with one Write per Flush; before that it writes only
// when maxRetained bytes have piled up. The first write error sticks.
type Writer struct {
	dst io.Writer
	buf []byte
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{dst: w} }

// added is the tail of every append.
func (w *Writer) added() error {
	if len(w.buf) >= maxRetained {
		return w.Flush()
	}
	return w.err
}

// Status writes "+s\r\n".
func (w *Writer) Status(s string) error {
	w.buf = append(append(append(w.buf, '+'), s...), '\r', '\n')
	return w.added()
}

// Error writes "-msg\r\n". CR/LF inside msg would break framing, so they
// are replaced with spaces.
func (w *Writer) Error(msg string) error {
	from := len(w.buf)
	w.buf = append(append(append(w.buf, '-'), msg...), '\r', '\n')
	for i, c := range w.buf[from : len(w.buf)-2] {
		if c == '\r' || c == '\n' {
			w.buf[from+i] = ' '
		}
	}
	return w.added()
}

// head appends a type byte, a decimal and CRLF: an integer reply or the
// header of a bulk or an array.
func (w *Writer) head(kind Kind, n int64) {
	w.buf = append(strconv.AppendInt(append(w.buf, byte(kind)), n, 10), '\r', '\n')
}

// Int writes ":n\r\n".
func (w *Writer) Int(n int64) error {
	w.head(KindInt, n)
	return w.added()
}

// Bulk writes "$len\r\nb\r\n".
func (w *Writer) Bulk(b []byte) error {
	w.head(KindBulk, int64(len(b)))
	w.buf = append(append(w.buf, b...), '\r', '\n')
	return w.added()
}

// Null writes the null bulk "$-1\r\n" (key not found).
func (w *Writer) Null() error {
	w.head(KindBulk, -1)
	return w.added()
}

// ArrayHeader writes "*n\r\n"; the caller then writes n elements.
func (w *Writer) ArrayHeader(n int) error {
	w.head(KindArray, int64(n))
	return w.added()
}

// Command writes one command in array-of-bulk form (client side).
func (w *Writer) Command(args ...[]byte) error {
	w.ArrayHeader(len(args)) //nolint:errcheck // the error sticks; Bulk or the return below reports it
	for _, a := range args {
		w.Bulk(a) //nolint:errcheck
	}
	return w.err
}

// Flush sends everything buffered.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		var n int
		if n, w.err = w.dst.Write(w.buf); w.err == nil && n < len(w.buf) {
			w.err = io.ErrShortWrite
		}
	}
	if w.buf = w.buf[:0]; cap(w.buf) > 2*maxRetained {
		w.buf = nil
	}
	return w.err
}
