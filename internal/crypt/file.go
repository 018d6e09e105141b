package crypt

import (
	"crypto/cipher"
	"io"

	"shield/internal/vfs"
)

// DecryptingReaderAt wraps a vfs.RandomAccessFile whose body (from headerLen
// onward) is encrypted with key/iv. ReadAt takes body-relative offsets and
// returns plaintext.
type DecryptingReaderAt struct {
	f         vfs.RandomAccessFile
	stream    *Stream
	headerLen int64
}

// NewDecryptingReaderAt wraps f. headerLen is the length of the plaintext
// file header preceding the encrypted body.
func NewDecryptingReaderAt(f vfs.RandomAccessFile, key DEK, iv [IVSize]byte, headerLen int64) (*DecryptingReaderAt, error) {
	s, err := NewStream(key, iv)
	if err != nil {
		return nil, err
	}
	return &DecryptingReaderAt{f: f, stream: s, headerLen: headerLen}, nil
}

// ReadAt implements io.ReaderAt over the decrypted body.
func (r *DecryptingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.f.ReadAt(p, off+r.headerLen)
	if n > 0 {
		r.stream.XORKeyStreamAt(p[:n], p[:n], off)
	}
	if err != nil && err != io.EOF {
		return n, err
	}
	return n, err
}

// Size returns the body length (file size minus header).
func (r *DecryptingReaderAt) Size() (int64, error) {
	sz, err := r.f.Size()
	if err != nil {
		return 0, err
	}
	return sz - r.headerLen, nil
}

// Close closes the underlying file.
func (r *DecryptingReaderAt) Close() error { return r.f.Close() }

// DecryptingReader decrypts a streaming read of a v1 body from its first
// byte: the replay side of BufferedWriter (WAL and MANIFEST recovery, Scrub).
// Like the writer it positions one keystream per file and carries it across
// Reads, so a Read costs the inner read and an XOR.
type DecryptingReader struct {
	f  vfs.SequentialFile
	ks cipher.Stream // positioned at the body bytes read so far
}

// NewDecryptingReader wraps f, which must be positioned at the start of the
// encrypted body (just past the plaintext header).
func NewDecryptingReader(f vfs.SequentialFile, key DEK, iv [IVSize]byte) (*DecryptingReader, error) {
	s, err := NewStream(key, iv)
	if err != nil {
		return nil, err
	}
	return &DecryptingReader{f: f, ks: s.keystreamAt(0)}, nil
}

// Read implements io.Reader over the decrypted body.
func (r *DecryptingReader) Read(p []byte) (int, error) {
	n, err := r.f.Read(p)
	if n > 0 {
		r.ks.XORKeyStream(p[:n], p[:n])
	}
	return n, err
}

// Close closes the underlying file.
func (r *DecryptingReader) Close() error { return r.f.Close() }
