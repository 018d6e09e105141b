package dstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"

	"shield/internal/netretry"
	"shield/internal/vfs"
)

// The wire format. Each connection opens with preamble in both directions:
// the client sends it ahead of its first request, the server ahead of its
// first reply, so the handshake costs no round trip of its own. After it,
// requests and replies alternate strictly, each one frame:
//
//	metaLen u32 | dataLen u32 | meta (metaLen bytes) | data (dataLen bytes)
//
// All integers are little-endian. A request's meta is
//
//	op u8 | handle u64 | off i64 | len i64 | seq u64 | name str | name2 str
//
// and a reply's
//
//	flags u8 | handle u64 | n i64 | size i64 | err str | count u32 | count × (name str | size i64)
//
// where str is a u16 length and that many bytes, and flags bit 0 is EOF.
// Data is Request.Data / Response.Data, kept out of the meta so that a
// reply's bytes are read straight into the caller's buffer and a server
// sends header and body with one vectored write.
//
// Nothing a peer declares is trusted: metaLen+dataLen is capped at maxFrame
// before anything is read, every length inside the meta is checked against
// the bytes left in it, and buffers grow with the bytes that arrive rather
// than with the lengths declared. The encoding is canonical (every meta byte
// is accounted for and unknown ops and flags are rejected), so a frame that
// decodes re-encodes to the same bytes.
const (
	protoVersion = 1
	frameHead    = 8

	// maxFrame caps one frame: the largest read reply plus room for its
	// header, two names, or a directory listing.
	maxFrame = maxReadLen + 64<<10

	infoMin = 2 + 8 // the smallest file info: an empty name and a size
	maxStr  = 1<<16 - 1
	flagEOF = 1
)

var preamble = [8]byte{'D', 'S', 'T', 'O', 'R', 'E', 0, protoVersion}

var (
	// errPreamble: the peer opened with something other than this protocol
	// version's preamble (an older or newer node, or not a dstore peer).
	errPreamble = errors.New("dstore: peer does not speak this wire protocol version")

	// errFrame: a frame's contents contradict its own lengths or name an
	// unknown op. The stream cannot be trusted past it.
	errFrame = errors.New("dstore: malformed frame")
)

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errFrame, fmt.Sprintf(format, args...))
}

// appendHead reserves a frame head at the end of b; putHead fills it in
// once the meta behind it is complete.
func appendHead(b []byte) []byte { return append(b, make([]byte, frameHead)...) }

func putHead(b []byte, start, dataLen int) {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-frameHead))
	binary.LittleEndian.PutUint32(b[start+4:], uint32(dataLen))
}

func appendStr(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(b, uint16(len(s))), s...)
}

// appendRequest appends req's head and meta to b; req.Data follows them on
// the wire. The caller has checked that both names fit a str.
func appendRequest(b []byte, req *Request) []byte {
	start := len(b)
	b = appendHead(b)
	b = append(b, byte(req.Op))
	b = binary.LittleEndian.AppendUint64(b, req.Handle)
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Off))
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Len))
	b = binary.LittleEndian.AppendUint64(b, req.Seq)
	b = appendStr(appendStr(b, req.Name), req.Name2)
	putHead(b, start, len(req.Data))
	return b
}

// appendResponse appends resp's head and meta to b; resp.Data follows them
// on the wire. An error text longer than a str can hold is cut short; a
// listing that does not fit a frame fails.
func appendResponse(b []byte, resp *Response) ([]byte, error) {
	start := len(b)
	b = appendHead(b)
	var flags byte
	if resp.EOF {
		flags |= flagEOF
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint64(b, resp.Handle)
	b = binary.LittleEndian.AppendUint64(b, uint64(resp.N))
	b = binary.LittleEndian.AppendUint64(b, uint64(resp.Size))
	b = appendStr(b, resp.Err[:min(len(resp.Err), maxStr)])
	b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Infos)))
	for _, fi := range resp.Infos {
		if len(fi.Name) > maxStr {
			return nil, fmt.Errorf("dstore: file name of %d bytes: %w", len(fi.Name), netretry.ErrMessageTooLarge)
		}
		b = binary.LittleEndian.AppendUint64(appendStr(b, fi.Name), uint64(fi.Size))
	}
	if size := len(b) - start - frameHead + len(resp.Data); size > maxFrame {
		return nil, fmt.Errorf("dstore: %d-byte reply: %w", size, netretry.ErrMessageTooLarge)
	}
	putHead(b, start, len(resp.Data))
	return b, nil
}

// metaDec walks one meta. Every read is checked against the bytes left, and
// the first failure sticks.
type metaDec struct {
	b   []byte
	err error
}

func (d *metaDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.err = frameErr("field of %d bytes overruns the %d left in its frame", n, len(d.b))
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *metaDec) u8() byte {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *metaDec) u16() int {
	if v := d.take(2); v != nil {
		return int(binary.LittleEndian.Uint16(v))
	}
	return 0
}

func (d *metaDec) u32() int {
	if v := d.take(4); v != nil {
		return int(binary.LittleEndian.Uint32(v))
	}
	return 0
}

func (d *metaDec) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *metaDec) str() string { return string(d.take(d.u16())) }

// done fails a meta with bytes left over: they would not survive a
// re-encode.
func (d *metaDec) done() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = frameErr("%d stray bytes after the meta", len(d.b))
	}
	return d.err
}

// decodeRequest decodes a request meta; the caller attaches its data.
func decodeRequest(meta []byte) (Request, error) {
	d := metaDec{b: meta}
	req := Request{
		Op:     Op(d.u8()),
		Handle: d.u64(),
		Off:    int64(d.u64()),
		Len:    int(int64(d.u64())),
		Seq:    d.u64(),
		Name:   d.str(),
		Name2:  d.str(),
	}
	if err := d.done(); err != nil {
		return Request{}, err
	}
	if req.Op < OpCreate || req.Op > OpSum || req.Op == opRetired {
		return Request{}, frameErr("unknown op %d", req.Op)
	}
	return req, nil
}

// decodeResponse decodes a reply meta into resp (whose Data is left alone).
func decodeResponse(meta []byte, resp *Response) error {
	d := metaDec{b: meta}
	flags := d.u8()
	resp.Handle = d.u64()
	resp.N = int(int64(d.u64()))
	resp.Size = int64(d.u64())
	resp.Err = d.str()
	n := d.u32()
	if d.err == nil && n > len(d.b)/infoMin {
		return frameErr("%d file infos in %d bytes", n, len(d.b))
	}
	resp.Infos = nil
	if n > 0 {
		resp.Infos = make([]vfs.FileInfo, n)
		for i := range resp.Infos {
			resp.Infos[i] = vfs.FileInfo{Name: d.str(), Size: int64(d.u64())}
		}
	}
	if err := d.done(); err != nil {
		return err
	}
	if flags&^flagEOF != 0 {
		return frameErr("unknown reply flags %#x", flags)
	}
	resp.EOF = flags&flagEOF != 0
	return nil
}

// frameWriter sends the frames of one connection, each frame's head and
// meta and its data in one vectored write, the first behind the preamble.
type frameWriter struct {
	conn   net.Conn
	opened bool
	vec    [3][]byte
	bufs   net.Buffers
}

func (fw *frameWriter) send(headMeta, data []byte) error {
	n := 0
	if !fw.opened {
		fw.vec[0], n, fw.opened = preamble[:], 1, true
	}
	fw.vec[n], fw.vec[n+1] = headMeta, data
	fw.bufs = fw.vec[:n+2]
	_, err := fw.bufs.WriteTo(fw.conn)
	fw.vec[n+1] = nil // do not keep the caller's data alive
	return err
}

// frameReader reads the frames of one connection, the first behind the
// preamble. The meta of the frame last returned by next lives in the bufio
// window or in buf and is valid until the stream is read again.
type frameReader struct {
	r       *bufio.Reader
	buf     []byte
	greeted bool
}

// greet consumes the peer's preamble.
func (fr *frameReader) greet() error {
	got, err := fr.r.Peek(len(preamble))
	if err != nil {
		return err
	}
	if string(got) != string(preamble[:]) {
		return fmt.Errorf("%w (opened with %q)", errPreamble, got)
	}
	fr.r.Discard(len(preamble)) //nolint:errcheck // peeked above
	fr.greeted = true
	return nil
}

// next reads one frame's head and meta and returns the meta and the length
// of the data that follows it on the stream.
func (fr *frameReader) next() ([]byte, int, error) {
	if !fr.greeted {
		if err := fr.greet(); err != nil {
			return nil, 0, err
		}
	}
	h, err := fr.r.Peek(frameHead)
	if err != nil {
		if len(h) > 0 {
			err = noEOF(err)
		}
		return nil, 0, err
	}
	metaLen, dataLen := binary.LittleEndian.Uint32(h), binary.LittleEndian.Uint32(h[4:])
	if uint64(metaLen)+uint64(dataLen) > maxFrame {
		return nil, 0, fmt.Errorf("dstore: frame declares %d bytes: %w", uint64(metaLen)+uint64(dataLen), netretry.ErrMessageTooLarge)
	}
	fr.r.Discard(frameHead) //nolint:errcheck // peeked above
	if int(metaLen) <= fr.r.Size() {
		meta, err := fr.r.Peek(int(metaLen))
		if err != nil {
			return nil, 0, noEOF(err)
		}
		fr.r.Discard(len(meta)) //nolint:errcheck // peeked above
		return meta, int(dataLen), nil
	}
	meta, err := readN(fr.r, fr.buf, int(metaLen))
	if cap(meta) <= maxRetained {
		fr.buf = meta
	}
	return meta, int(dataLen), err
}

// readN reads exactly n bytes from r into buf's backing array, which grows
// with the bytes that arrive, not to the n a peer merely declared.
func readN(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 4<<10)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, noEOF(err)
		}
	}
	return buf, nil
}

// noEOF turns a stream that ended inside a frame into io.ErrUnexpectedEOF:
// only a peer that hangs up between frames has ended cleanly.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readRequest reads one request. Its Data aliases *data, which is reused
// across requests.
func readRequest(fr *frameReader, data *[]byte) (Request, error) {
	meta, dataLen, err := fr.next()
	if err != nil {
		return Request{}, err
	}
	req, err := decodeRequest(meta)
	if err != nil {
		return Request{}, err
	}
	if dataLen > 0 {
		*data, err = readN(fr.r, *data, dataLen)
		req.Data = *data
	}
	return req, err
}

// readResponse reads one reply into resp. A nonempty Data is read into dst
// when dst is non-nil (a reply longer than dst is a malformed frame: it
// answered something else than was asked) and into a new slice otherwise.
func readResponse(fr *frameReader, resp *Response, dst []byte) error {
	meta, dataLen, err := fr.next()
	if err != nil {
		return err
	}
	if err := decodeResponse(meta, resp); err != nil {
		return err
	}
	resp.Data = nil
	switch {
	case dataLen == 0:
	case dst == nil:
		resp.Data, err = readN(fr.r, nil, dataLen)
	case dataLen > len(dst):
		return frameErr("%d reply bytes for a %d-byte read", dataLen, len(dst))
	default:
		resp.Data = dst[:dataLen]
		_, err = io.ReadFull(fr.r, resp.Data)
		err = noEOF(err)
	}
	return err
}
