package resp

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadCommand is a differential target: the same input, delivered in
// fuzzer-chosen pieces, must give the in-place Reader and the bufio oracle
// the same commands, the same error class at the same command, and the same
// stream position after each — which also means no panic, no command over
// its limits, and a reader that is resynced after a recoverable error.
func FuzzReadCommand(f *testing.F) {
	for _, seed := range parserSeeds {
		f.Add(seed, []byte(nil))
		f.Add(seed, []byte{0, 3, 130})
	}
	f.Fuzz(diffParsers)
}

// FuzzReadReply mirrors FuzzReadCommand for the client-side reply parser.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte("-ERR nope\r\n"))
	f.Add([]byte(":42\r\n"))
	f.Add([]byte("$5\r\nhello\r\n$-1\r\n"))
	f.Add([]byte("*2\r\n$1\r\na\r\n:7\r\n"))
	f.Add([]byte("*9999999\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(io.MultiReader(bytes.NewReader(data), strings.NewReader(""))) //nolint:staticcheck // exercise non-bufio path
		r.MaxBulkLen = 1 << 16
		r.MaxArrayLen = 64
		for i := 0; i < 64; i++ {
			if _, err := r.ReadReply(); err != nil {
				return
			}
		}
	})
}
