// Package crypt provides the cryptographic primitives SHIELD builds on: Data
// Encryption Keys (DEKs), an offset-seekable AES-128-CTR stream so encrypted
// files support positional reads, and PBKDF2 key derivation for the secure
// DEK cache passkey.
//
// The paper runs 128-bit AES in CTR mode (Section 6.1); CTR lets a reader
// decrypt any byte range of a file without touching the rest, which is what
// SST block reads need.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// KeySize is the DEK length in bytes (AES-128).
const KeySize = 16

// IVSize is the CTR initialization-vector length in bytes.
const IVSize = aes.BlockSize

// DEK is a Data Encryption Key. A DEK encrypts exactly one file under SHIELD
// (per-file DEKs) or an entire instance under EncFS.
type DEK [KeySize]byte

// ErrKeySize reports a key of the wrong length.
var ErrKeySize = errors.New("crypt: invalid key size")

// NewDEK generates a fresh random DEK.
func NewDEK() (DEK, error) {
	var k DEK
	if _, err := rand.Read(k[:]); err != nil {
		return DEK{}, fmt.Errorf("crypt: generating DEK: %w", err)
	}
	return k, nil
}

// DEKFromBytes copies b into a DEK. b must be exactly KeySize bytes.
func DEKFromBytes(b []byte) (DEK, error) {
	var k DEK
	if len(b) != KeySize {
		return k, fmt.Errorf("%w: got %d, want %d", ErrKeySize, len(b), KeySize)
	}
	copy(k[:], b)
	return k, nil
}

// String renders the DEK redacted; keys must never leak into logs.
func (DEK) String() string { return "DEK(redacted)" }

// NewIV generates a fresh random CTR initialization vector.
func NewIV() ([IVSize]byte, error) {
	var iv [IVSize]byte
	if _, err := rand.Read(iv[:]); err != nil {
		return iv, fmt.Errorf("crypt: generating IV: %w", err)
	}
	return iv, nil
}

// Stream is an offset-addressable AES-CTR keystream bound to one (DEK, IV)
// pair. XORKeyStreamAt encrypts or decrypts (the operation is symmetric) a
// buffer that logically starts at the given byte offset of the file body.
//
// A Stream is stateless between calls and safe for concurrent use; every
// XORKeyStreamAt call derives the keystream for its offset, which is what
// positional reads of a v1 body (DecryptingReaderAt) need. The append
// streams (BufferedWriter, DecryptingReader) instead position one keystream
// per file and carry it forward.
type Stream struct {
	block cipher.Block
	iv    [IVSize]byte
}

// NewStream builds a Stream for the given DEK and IV.
func NewStream(key DEK, iv [IVSize]byte) (*Stream, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("crypt: %w", err)
	}
	return &Stream{block: block, iv: iv}, nil
}

// XORKeyStreamAt applies the keystream for file-body offset off to src,
// writing the result to dst. dst and src may be the same slice.
func (s *Stream) XORKeyStreamAt(dst, src []byte, off int64) {
	if len(dst) < len(src) {
		panic("crypt: dst shorter than src")
	}
	s.keystreamAt(off).XORKeyStream(dst[:len(src)], src)
}

// keystreamAt returns the keystream positioned at file-body offset off: CTR
// started at off's block, with the first off%16 keystream bytes discarded.
// It carries its position forward, so an append stream (BufferedWriter,
// DecryptingReader) positions one once per file and XORs every later byte
// through it, with no key schedule, CTR setup or allocation per call.
func (s *Stream) keystreamAt(off int64) cipher.Stream {
	var ctr [aes.BlockSize]byte
	addCounter(&ctr, s.iv, uint64(off)/aes.BlockSize)
	stream := cipher.NewCTR(s.block, ctr[:])
	if skip := int(uint64(off) % aes.BlockSize); skip > 0 {
		var scratch [aes.BlockSize]byte
		stream.XORKeyStream(scratch[:skip], scratch[:skip])
	}
	return stream
}

// addCounter sets ctr = iv + n treating the IV as a 128-bit big-endian
// counter, matching cipher.NewCTR's increment rule.
func addCounter(ctr *[aes.BlockSize]byte, iv [IVSize]byte, n uint64) {
	copy(ctr[:], iv[:])
	// Add n to the low 64 bits, propagating carry into the high 64 bits.
	lo := binary.BigEndian.Uint64(ctr[8:])
	newLo := lo + n
	binary.BigEndian.PutUint64(ctr[8:], newLo)
	if newLo < lo { // carry
		hi := binary.BigEndian.Uint64(ctr[:8])
		binary.BigEndian.PutUint64(ctr[:8], hi+1)
	}
}

// EncryptAt is a convenience that allocates a fresh Stream per call, paying
// the full encryption-initialization cost (AES key schedule + CTR setup)
// every time: the overhead the paper measures in Figure 4. The engine's
// write path never calls it (BufferedWriter keys its stream once per file);
// it opens the sealed state files of older builds and drives the Figure 4
// microbenchmark.
func EncryptAt(key DEK, iv [IVSize]byte, dst, src []byte, off int64) error {
	s, err := NewStream(key, iv)
	if err != nil {
		return err
	}
	s.XORKeyStreamAt(dst, src, off)
	return nil
}

// PBKDF2SHA256 derives keyLen bytes from password and salt with the given
// iteration count using PBKDF2-HMAC-SHA256 (RFC 8018). It seals the secure
// DEK cache with the user-provided server passkey (Section 5.2).
func PBKDF2SHA256(password, salt []byte, iter, keyLen int) []byte {
	prf := hmac.New(sha256.New, password)
	hashLen := prf.Size()
	numBlocks := (keyLen + hashLen - 1) / hashLen

	var buf [4]byte
	dk := make([]byte, 0, numBlocks*hashLen)
	u := make([]byte, hashLen)
	t := make([]byte, hashLen)
	for blk := 1; blk <= numBlocks; blk++ {
		prf.Reset()
		prf.Write(salt)
		binary.BigEndian.PutUint32(buf[:], uint32(blk))
		prf.Write(buf[:])
		u = prf.Sum(u[:0])
		copy(t, u)
		for i := 1; i < iter; i++ {
			prf.Reset()
			prf.Write(u)
			u = prf.Sum(u[:0])
			for j := range t {
				t[j] ^= u[j]
			}
		}
		dk = append(dk, t...)
	}
	// Wipe the intermediate HMAC states and the derived tail beyond keyLen;
	// the caller owns (and must eventually Zeroize) the returned prefix.
	Zeroize(u)
	Zeroize(t)
	Zeroize(dk[keyLen:])
	return dk[:keyLen]
}

// HKDFSHA256 derives n bytes from secret using HKDF (RFC 5869) with
// SHA-256: extract with salt, then expand with info. It backs the KDS's
// hierarchical key-derivation policy, where per-file DEKs are derived from
// a master secret and the file's DEK-ID instead of being stored.
func HKDFSHA256(secret, salt, info []byte, n int) []byte {
	// Extract.
	prk := HMACSHA256(salt, secret)
	// Expand.
	var (
		out  []byte
		prev []byte
		ctr  byte = 1
	)
	for len(out) < n {
		mac := hmac.New(sha256.New, prk)
		mac.Write(prev)
		mac.Write(info)
		mac.Write([]byte{ctr})
		prev = mac.Sum(nil)
		out = append(out, prev...)
		ctr++
	}
	// Wipe the pseudorandom key and the expand tail beyond n; the caller
	// owns (and must eventually Zeroize) the returned prefix.
	Zeroize(prk)
	Zeroize(prev)
	Zeroize(out[n:])
	return out[:n]
}

// HMACSHA256 returns the HMAC-SHA256 tag of data under key.
func HMACSHA256(key, data []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(data)
	return mac.Sum(nil)
}

// VerifyHMACSHA256 reports whether tag authenticates data under key, in
// constant time.
func VerifyHMACSHA256(key, data, tag []byte) bool {
	return hmac.Equal(HMACSHA256(key, data), tag)
}
