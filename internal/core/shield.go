package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/metrics"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

// ErrDegraded marks an operation refused because the KDS is unreachable and
// the needed DEK is not available locally. Writes need a fresh DEK, so they
// fail fast with this error rather than hanging; reads degrade only when the
// DEK is in neither the in-memory map nor the secure cache. Callers match it
// with errors.Is and typically surface "read-only / retry later" upstream.
var ErrDegraded = errors.New("core: degraded: KDS unavailable")

// kdsUnavailable distinguishes "the service cannot be reached" (every
// replica down or unresponsive — a transient infrastructure fault worth
// degrading over) from policy denials like ErrUnauthorized or
// ErrAlreadyIssued, which are authoritative answers and must surface as-is.
func kdsUnavailable(err error) bool {
	return errors.Is(err, kds.ErrNoReplica)
}

// SHIELD file header (plaintext, precedes the encrypted body):
//
//	magic(4) version(4) dekIDLen(2) dekID iv(16)
//
// The DEK-ID is deliberately in the clear — it is the metadata-enabled
// sharing hook of Section 5.4. Possession of a DEK-ID is useless without
// KDS authorization, and one-time provisioning blocks replay of leaked IDs.
//
// version selects the body format: 1 is AES-128-CTR under the 16-byte IV
// (confidentiality only), 2 is per-block AES-GCM (crypt/seal.go) with the
// first 8 IV bytes as the nonce prefix and the full header as AAD — so a
// header cannot be transplanted onto another body. New SSTs are written as
// v2; WAL and MANIFEST streams stay v1 (sealing finalizes on first Sync,
// which append-many files cannot satisfy); readers accept both, which is
// what lets a v1 store migrate file-by-file through compaction.
const (
	shieldMagic    = 0x53484c44 // "SHLD"
	shieldVersion  = 1
	shieldVersion2 = 2
)

// errBadHeader wraps lsm.ErrCorruption: a malformed SHIELD header is
// structural file damage (unlike an unresolvable DEK, which may just mean
// the KDS is unreachable and must never classify as corruption).
var errBadHeader = fmt.Errorf("core: bad SHIELD file header: %w", lsm.ErrCorruption)

func encodeHeader(dekID kds.KeyID, iv [crypt.IVSize]byte, version uint32) []byte {
	out := make([]byte, 0, 10+len(dekID)+crypt.IVSize)
	var tmp [10]byte
	binary.LittleEndian.PutUint32(tmp[0:4], shieldMagic)
	binary.LittleEndian.PutUint32(tmp[4:8], version)
	binary.LittleEndian.PutUint16(tmp[8:10], uint16(len(dekID)))
	out = append(out, tmp[:]...)
	out = append(out, dekID...)
	out = append(out, iv[:]...)
	return out
}

// parseHeader decodes a header from buf; returns the DEK-ID, IV, format
// version, and total header length.
func parseHeader(buf []byte) (kds.KeyID, [crypt.IVSize]byte, uint32, int, error) {
	var iv [crypt.IVSize]byte
	if len(buf) < 10 {
		return "", iv, 0, 0, errBadHeader
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != shieldMagic {
		return "", iv, 0, 0, fmt.Errorf("%w: bad magic", errBadHeader)
	}
	v := binary.LittleEndian.Uint32(buf[4:8])
	if v != shieldVersion && v != shieldVersion2 {
		return "", iv, 0, 0, fmt.Errorf("%w: unsupported version %d", errBadHeader, v)
	}
	idLen := int(binary.LittleEndian.Uint16(buf[8:10]))
	if len(buf) < 10+idLen+crypt.IVSize {
		return "", iv, 0, 0, fmt.Errorf("%w: truncated", errBadHeader)
	}
	id := kds.KeyID(buf[10 : 10+idLen])
	copy(iv[:], buf[10+idLen:10+idLen+crypt.IVSize])
	return id, iv, v, 10 + idLen + crypt.IVSize, nil
}

// DEKIDFromHeader extracts the plaintext DEK-ID from the head of a SHIELD
// file's raw bytes — the read any server performs before asking the KDS for
// the key (metadata-enabled DEK sharing).
func DEKIDFromHeader(data []byte) (string, bool) {
	id, _, _, _, err := parseHeader(data)
	if err != nil {
		return "", false
	}
	return string(id), true
}

// SealedHeaderLen returns the header length and whether data begins a
// format-v2 (sealed) SHIELD file — the layout information a storage node
// needs to locate block tags without holding any key.
func SealedHeaderLen(data []byte) (int, bool) {
	_, _, version, hdrLen, err := parseHeader(data)
	if err != nil || version != shieldVersion2 {
		return 0, false
	}
	return hdrLen, true
}

// shieldWrapper implements lsm.FileWrapper with per-file DEKs.
type shieldWrapper struct {
	cfg Config

	// deks mirrors the DEKs of live files in memory (the paper keeps the
	// DEK "in memory as part of the LSM-KVS metadata while the instance is
	// running"); the secure cache persists them across restarts. names
	// remembers which DEK this wrapper minted for which file so deletion
	// notifications without an explicit DEK-ID (WALs, MANIFESTs) still
	// prune the right key.
	mu    sync.Mutex
	deks  map[kds.KeyID]crypt.DEK
	names map[string]kds.KeyID

	// Stats.
	created    int64
	kdsFetches int64
	cacheHits  int64
	memoryHits int64
}

func newShieldWrapper(cfg Config) *shieldWrapper {
	return &shieldWrapper{
		cfg:   cfg,
		deks:  make(map[kds.KeyID]crypt.DEK),
		names: make(map[string]kds.KeyID),
	}
}

// WrapperStats reports DEK-resolution counters for a SHIELD wrapper.
type WrapperStats struct {
	DEKsCreated int64
	KDSFetches  int64
	CacheHits   int64
	MemoryHits  int64
}

// Stats extracts counters from a wrapper produced by BuildWrapper; ok is
// false for non-SHIELD wrappers.
func Stats(w lsm.FileWrapper) (WrapperStats, bool) {
	sw, ok := w.(*shieldWrapper)
	if !ok {
		return WrapperStats{}, false
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return WrapperStats{
		DEKsCreated: sw.created,
		KDSFetches:  sw.kdsFetches,
		CacheHits:   sw.cacheHits,
		MemoryHits:  sw.memoryHits,
	}, true
}

// WrapCreate implements lsm.FileWrapper. Every new WAL/SST/MANIFEST gets a
// fresh DEK; CURRENT (no user data, must be readable at bootstrap) passes
// through.
func (s *shieldWrapper) WrapCreate(name string, kind lsm.FileKind, f vfs.WritableFile) (_ vfs.WritableFile, _ string, err error) {
	if kind == lsm.FileKindCurrent || kind == lsm.FileKindOther {
		return f, "", nil
	}
	if kind == lsm.FileKindWAL && s.cfg.PlaintextWAL {
		return f, "", nil
	}
	id, dek, err := s.cfg.KDS.CreateDEK()
	if err != nil {
		if kdsUnavailable(err) {
			metrics.Net.DegradedWrites.Add(1)
			return nil, "", fmt.Errorf("%w: requesting DEK for %s: %v", ErrDegraded, name, err)
		}
		return nil, "", fmt.Errorf("core: requesting DEK for %s: %w", name, err)
	}
	s.mu.Lock()
	s.deks[id] = dek
	s.names[name] = id
	s.created++
	s.mu.Unlock()
	// A failure from here on must undo that registration itself: the caller
	// never learns the DEK-ID, so its cleanup has nothing to hand FileDeleted.
	defer func() {
		if err != nil {
			s.FileDeleted(name, string(id))
			s.mu.Lock()
			s.created--
			s.mu.Unlock()
		}
	}()
	if s.cfg.Cache != nil {
		// Best effort: we hold the DEK in memory, so a cache-persistence
		// failure (storage may itself be degraded) must not fail the write
		// path.
		s.cfg.Cache.Put(id, dek) //nolint:errcheck
	}
	iv, err := crypt.NewIV()
	if err != nil {
		return nil, "", err
	}
	// SSTs are write-once and get the authenticated v2 format; WAL and
	// MANIFEST are append-many streams and stay on v1 CTR (their records
	// carry CRCs inside the ciphertext; see DESIGN.md §13).
	version := uint32(shieldVersion)
	if kind == lsm.FileKindSST {
		version = shieldVersion2
	}
	hdr := encodeHeader(id, iv, version)
	if err := vfs.WriteFull(f, hdr); err != nil {
		return nil, "", fmt.Errorf("core: writing header for %s: %w", name, err)
	}

	switch kind {
	case lsm.FileKindSST:
		sealer, err := crypt.NewSealer(dek, iv[:crypt.SealedNoncePrefixLen], hdr)
		if err != nil {
			return nil, "", err
		}
		return crypt.NewSealedWriter(f, sealer, s.cfg.CompactionChunkSize, s.cfg.EncryptionThreads), string(id), nil
	case lsm.FileKindWAL:
		return crypt.NewBufferedWriter(f, dek, iv, s.cfg.WALBufferSize), string(id), nil
	default: // MANIFEST: small, infrequent appends
		return crypt.NewBufferedWriter(f, dek, iv, 0), string(id), nil
	}
}

// resolveDEK finds a DEK by ID: in-memory map, then secure cache, then KDS.
func (s *shieldWrapper) resolveDEK(id kds.KeyID) (crypt.DEK, error) {
	s.mu.Lock()
	dek, ok := s.deks[id]
	if ok {
		s.memoryHits++
		s.mu.Unlock()
		return dek, nil
	}
	s.mu.Unlock()

	if s.cfg.Cache != nil {
		if dek, err := s.cfg.Cache.Get(id); err == nil {
			s.mu.Lock()
			s.deks[id] = dek
			s.cacheHits++
			s.mu.Unlock()
			return dek, nil
		} else if !errors.Is(err, seccache.ErrNotCached) {
			return crypt.DEK{}, err
		}
	}

	dek, err := s.cfg.KDS.FetchDEK(id)
	if err != nil {
		if kdsUnavailable(err) {
			metrics.Net.DegradedReads.Add(1)
			return crypt.DEK{}, fmt.Errorf("%w: resolving DEK %s: %v", ErrDegraded, id, err)
		}
		if errors.Is(err, kds.ErrUnknownKey) {
			// Authoritative disavowal, not unavailability: the KDS durably
			// records every DEK it ever issued, so an ID it has never seen —
			// read from a plaintext header the threat model lets the storage
			// side rewrite — means the header was tampered with. Classify as
			// an integrity violation so recovery quarantines the file (bytes
			// preserved) instead of treating it as an unresolvable key.
			return crypt.DEK{}, fmt.Errorf("%w: DEK-ID %s disavowed by KDS (header tampered?): %v", vfs.ErrIntegrity, id, err)
		}
		return crypt.DEK{}, fmt.Errorf("core: resolving DEK %s: %w", id, err)
	}
	s.mu.Lock()
	s.deks[id] = dek
	s.kdsFetches++
	s.mu.Unlock()
	if s.cfg.Cache != nil {
		s.cfg.Cache.Put(id, dek) //nolint:errcheck // best effort, DEK is in memory
	}
	return dek, nil
}

// WrapOpen implements lsm.FileWrapper for positional reads.
func (s *shieldWrapper) WrapOpen(name string, kind lsm.FileKind, f vfs.RandomAccessFile) (vfs.RandomAccessFile, error) {
	if kind == lsm.FileKindCurrent || kind == lsm.FileKindOther {
		return f, nil
	}
	if kind == lsm.FileKindWAL && s.cfg.PlaintextWAL {
		return f, nil
	}
	var hdr [4096]byte
	n, err := f.ReadAt(hdr[:], 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	id, iv, version, hdrLen, err := parseHeader(hdr[:n])
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	dek, err := s.resolveDEK(id)
	if err != nil {
		return nil, err
	}
	if version == shieldVersion2 {
		sealer, err := crypt.NewSealer(dek, iv[:crypt.SealedNoncePrefixLen], hdr[:hdrLen])
		if err != nil {
			return nil, err
		}
		r, err := crypt.NewSealedReaderAt(f, sealer, int64(hdrLen))
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", name, err)
		}
		return r, nil
	}
	//shield:noauthread format v1 compatibility: CTR files predate authentication; their absence of a manifest digest is what marks them unauthenticated
	return crypt.NewDecryptingReaderAt(f, dek, iv, int64(hdrLen))
}

// WrapOpenSequential implements lsm.FileWrapper for streaming reads
// (WAL/MANIFEST recovery).
func (s *shieldWrapper) WrapOpenSequential(name string, kind lsm.FileKind, f vfs.SequentialFile) (vfs.SequentialFile, error) {
	if kind == lsm.FileKindCurrent || kind == lsm.FileKindOther {
		return f, nil
	}
	if kind == lsm.FileKindWAL && s.cfg.PlaintextWAL {
		return f, nil
	}
	// Read the fixed prefix, then the variable tail of the header.
	var fixed [10]byte
	if _, err := io.ReadFull(f, fixed[:]); err != nil {
		return nil, fmt.Errorf("core: %s: reading header: %w", name, err)
	}
	idLen := int(binary.LittleEndian.Uint16(fixed[8:10]))
	rest := make([]byte, idLen+crypt.IVSize)
	if _, err := io.ReadFull(f, rest); err != nil {
		return nil, fmt.Errorf("core: %s: reading header: %w", name, err)
	}
	id, iv, version, _, err := parseHeader(append(fixed[:], rest...))
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	if version == shieldVersion2 {
		// Only WAL/MANIFEST recovery streams files, and both stay on v1;
		// sealed bodies need positional reads for block verification.
		return nil, fmt.Errorf("core: %s: sealed (v2) files require positional reads", name)
	}
	dek, err := s.resolveDEK(id)
	if err != nil {
		return nil, err
	}
	stream, err := crypt.NewStream(dek, iv)
	if err != nil {
		return nil, err
	}
	return &decryptingSequential{f: f, stream: stream}, nil
}

// FileDeleted implements lsm.FileWrapper: DEKs die with their files, which
// is what makes compaction-driven rotation effective (Section 5.2).
func (s *shieldWrapper) FileDeleted(name string, dekID string) {
	id := kds.KeyID(dekID)
	s.mu.Lock()
	if id == "" {
		id = s.names[name] // WAL/MANIFEST deletions carry no explicit ID
	}
	delete(s.names, name)
	if id == "" {
		s.mu.Unlock()
		return
	}
	delete(s.deks, id)
	s.mu.Unlock()
	if s.cfg.Cache != nil {
		s.cfg.Cache.Delete(id) //nolint:errcheck // best-effort prune
	}
	if s.cfg.RevokeOnDelete {
		s.cfg.KDS.RevokeDEK(id) //nolint:errcheck // best-effort revoke
	}
}

// decryptingSequential decrypts a streaming read of an encrypted body.
type decryptingSequential struct {
	f      vfs.SequentialFile
	stream *crypt.Stream
	off    int64
}

func (d *decryptingSequential) Read(p []byte) (int, error) {
	n, err := d.f.Read(p)
	if n > 0 {
		d.stream.XORKeyStreamAt(p[:n], p[:n], d.off)
		d.off += int64(n)
	}
	return n, err
}

func (d *decryptingSequential) Close() error { return d.f.Close() }
