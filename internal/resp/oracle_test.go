package resp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"testing"
)

// oracle is the bufio-based copying command parser this package shipped
// before the in-place one, kept as the reference the differential tests hold
// Reader to. Error texts are dropped; classes and positions are what counts.
type oracle struct {
	br                *bufio.Reader // sized maxInlineLen
	maxBulk, maxArray int
}

var errFatal, errRecoverable error = &ProtocolError{Msg: "fatal"}, &ProtocolError{Msg: "recoverable", Recoverable: true}

func (o *oracle) line() ([]byte, error) {
	line, err := o.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return nil, errFatal
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(line[:len(line)-1], []byte("\r")), nil
}

func (o *oracle) bulk() ([]byte, error) {
	line, err := o.line()
	if err != nil {
		return nil, err
	}
	n, perr := strconv.Atoi(string(bytes.TrimPrefix(line, []byte("$"))))
	if len(line) == 0 || line[0] != '$' || perr != nil || n < 0 || n > o.maxBulk {
		return nil, errFatal
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(o.br, buf); err != nil {
		return nil, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, errFatal
	}
	return buf[:n], nil
}

func (o *oracle) readCommand() (args [][]byte, err error) {
	for len(args) == 0 { // blank lines and empty arrays are skipped
		first, err := o.br.Peek(1)
		if err != nil {
			return nil, err
		}
		array := first[0] == '*'
		line, err := o.line()
		if err != nil {
			return nil, err
		}
		if !array {
			for _, f := range bytes.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' }) {
				args = append(args, bytes.Clone(f))
			}
			if len(args) > o.maxArray {
				return nil, errRecoverable
			}
			continue
		}
		n, perr := strconv.Atoi(string(line[1:]))
		if perr != nil {
			return nil, errRecoverable
		}
		if n > o.maxArray {
			return nil, errFatal
		}
		for ; n > 0; n-- {
			arg, err := o.bulk()
			if err != nil {
				return nil, err
			}
			args = append(args, arg)
		}
	}
	return args, nil
}

// chunked delivers data in pieces whose sizes cycle through cuts (each
// byte b a piece of b+1 bytes, scaled so that some pieces exceed a whole
// pipeline); with no cuts it delivers everything at once.
type chunked struct {
	data, cuts []byte
	i          int
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(c.data)
	if len(c.cuts) > 0 {
		b := int(c.cuts[c.i%len(c.cuts)])
		c.i++
		if n = b + 1; b >= 128 {
			n = (b - 127) * 64
		}
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	return n, nil
}

// class sorts a parser verdict into the four outcomes a connection handler
// tells apart.
func class(err error) string {
	switch {
	case err == nil:
		return "ok"
	case IsRecoverable(err):
		return "recoverable"
	case isProtocolError(err):
		return "fatal"
	}
	return "io"
}

// diffParsers feeds the same bytes in the same pieces to Reader and to the
// oracle and fails on the first difference in command, error class or
// stream position.
func diffParsers(t *testing.T, data, cuts []byte) {
	t.Helper()
	const maxBulk, maxArray = 1 << 16, 64
	srcR, srcO := &chunked{data: data, cuts: cuts}, &chunked{data: data, cuts: cuts}
	r := NewReader(srcR)
	r.MaxBulkLen, r.MaxArrayLen = maxBulk, maxArray
	o := &oracle{bufio.NewReaderSize(srcO, maxInlineLen), maxBulk, maxArray}
	for i := 0; ; i++ {
		got, gerr := r.ReadCommand()
		want, werr := o.readCommand()
		if class(gerr) != class(werr) {
			t.Fatalf("command %d: error class %s (%v), oracle %s (%v)", i, class(gerr), gerr, class(werr), werr)
		}
		if c := class(gerr); c == "fatal" || c == "io" {
			return // the connection would close here
		}
		if len(got) != len(want) {
			t.Fatalf("command %d: %d args %q, oracle %d args %q", i, len(got), got, len(want), want)
		}
		for j := range got {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("command %d arg %d: %q, oracle %q", i, j, got[j], want[j])
			}
		}
		if gerr == nil && (len(got) == 0 || len(got) > maxArray) {
			t.Fatalf("command %d: %d args", i, len(got))
		}
		if pr, po := len(srcR.data)+r.w-r.r, len(srcO.data)+o.br.Buffered(); pr != po {
			t.Fatalf("command %d (%s): %d bytes left, oracle %d", i, class(gerr), pr, po)
		}
	}
}

var parserSeeds = [][]byte{
	[]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"),
	[]byte("PING\r\n"),
	[]byte("GET key extra  args\r\n"),
	[]byte("*abc\r\nPING\r\n"),
	[]byte("*2\r\n$3\r\nGET\r\n$999999999\r\nzzz"),
	[]byte("*1\r\n:5\r\n"),
	[]byte("$5\r\nhello\r\n"),
	[]byte("*-1\r\n*0\r\n\r\n\n"),
	[]byte("*+1\r\n$+4\r\nPING\r\n*99999999999999999999\r\nPING\r\n*65\r\n"),
	[]byte("*1\r\n$3\r\nabcde\r\nPING\r\n"),
	[]byte("a b c d e f g h i j k l m n o p q r s t u v w x y z a b c d e f g h i j k l m n o p q r s t u v w x y z a b c d e f g h i j k l m\r\nPING\r\n"),
	[]byte("*2\r\n$3\r\nGET\r\n$40000\r\n" + string(bytes.Repeat([]byte("v"), 40000)) + "\r\nPING\r\n"),
	bytes.Repeat([]byte("a"), 4096),
	append(bytes.Repeat([]byte("a"), maxInlineLen-1), "\nPING\r\n"...),
	append(bytes.Repeat([]byte("a"), maxInlineLen), "\nPING\r\n"...),
}

// TestParserMatchesOracle runs the differential over the fuzz seeds at a few
// fixed chunkings, so plain `go test` exercises it too.
func TestParserMatchesOracle(t *testing.T) {
	for _, seed := range parserSeeds {
		for _, cuts := range [][]byte{nil, {0}, {2}, {0, 6, 200}, {255}} {
			diffParsers(t, seed, cuts)
		}
	}
}
