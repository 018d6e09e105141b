package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path"

	"shield/internal/crypt"
	"shield/internal/lsm"
	"shield/internal/vfs"
)

// The offline migration. The serving wrapper reads one generation of each
// file (shield.go); everything older builds wrote is read here, and only
// Migrate reaches it:
//
//   - the 24-byte EncFS header of stores written under ModeEncFS before the
//     instance-key policy: magic "ENCF"(4) version(4) iv(16), no DEK-ID (the
//     instance key), the same two body versions, the whole header as a
//     sealed body's AAD;
//   - v1 (AES-CTR, unauthenticated) bodies read positionally: EncFS tables
//     and CURRENT, and SHLD tables of the per-file policy written before
//     sealing;
//   - v2 bodies (AES-GCM per fixed 4 KiB block, crypt.BlockSealedReaderAt):
//     SSTs and sealed CURRENT written before format v3, under either
//     header.
//
// No build wrote a v1 body under a SHLD header for CURRENT or for an
// instance-key table, so the migrate wrapper refuses those as downgraded
// headers. Every other v1 table a current manifest still anchors with a
// digest fails Migrate's paranoid open: a sealed table rewritten to v1
// exposes no tag chain.
const (
	legacyMagic     = 0x454e4346 // "ENCF"
	legacyHeaderLen = 8 + crypt.IVSize
)

// isLegacyHeader reports whether prefix starts with the EncFS header of
// older builds.
func isLegacyHeader(prefix []byte) bool {
	return len(prefix) >= 4 && binary.LittleEndian.Uint32(prefix[0:4]) == legacyMagic
}

// migrateHeaderLen is headerLen that also knows the EncFS header.
func migrateHeaderLen(prefix []byte) int {
	if isLegacyHeader(prefix) {
		return legacyHeaderLen
	}
	return headerLen(prefix)
}

// parseMigrateHeader is parseHeader that also decodes the EncFS header;
// encfs reports which of the two buf holds.
func parseMigrateHeader(buf []byte) (h fileHeader, encfs bool, err error) {
	if !isLegacyHeader(buf) {
		h, err = parseHeader(buf)
		return h, false, err
	}
	if len(buf) < legacyHeaderLen {
		return h, true, fmt.Errorf("%w: truncated", errBadHeader)
	}
	h.version = binary.LittleEndian.Uint32(buf[4:8])
	if h.version != shieldVersion && h.version != shieldVersion2 {
		// EncFS headers predate format v3.
		return h, true, fmt.Errorf("%w: unsupported version %d", errBadHeader, h.version)
	}
	h.len = legacyHeaderLen
	copy(h.iv[:], buf[8:legacyHeaderLen])
	return h, true, nil
}

// migrateWrapper is the serving wrapper, with its key policy and DEK
// resolution, that also reads the generations older builds wrote. Its
// writes are the serving wrapper's, so everything it writes is current.
type migrateWrapper struct {
	*shieldWrapper
}

// WrapOpen implements lsm.FileWrapper for positional reads of any
// generation.
func (m migrateWrapper) WrapOpen(name string, kind lsm.FileKind, f vfs.RandomAccessFile) (vfs.RandomAccessFile, error) {
	if !m.seals(kind) {
		return f, nil
	}
	buf, err := readHeaderAt(f, migrateHeaderLen)
	if err != nil {
		return nil, err
	}
	h, encfs, err := parseMigrateHeader(buf)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	switch h.version {
	case shieldVersion3:
		return m.openSealed(name, f, h, buf[:h.len])
	case shieldVersion2:
		sealer, err := m.sealerFor(name, h, buf[:h.len])
		if err != nil {
			return nil, err
		}
		r, err := crypt.NewBlockSealedReaderAt(f, sealer, int64(h.len))
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", name, err)
		}
		return r, nil
	}
	if !encfs && (kind != lsm.FileKindSST || h.dekID == "") {
		return nil, &lsm.IntegrityError{Path: name, Kind: kind,
			Detail: "v1 (CTR) body under a SHLD header no build wrote for this file (header downgraded?)"}
	}
	dek, err := m.keyFor(name, h)
	if err != nil {
		return nil, err
	}
	//shield:noauthread offline migration: the only reader of v1 CTR tables and CURRENT written before sealing; the paranoid open it runs under fails any table whose manifest anchors a digest
	return crypt.NewDecryptingReaderAt(f, dek, h.iv, int64(h.len))
}

// WrapOpenSequential implements lsm.FileWrapper for streaming reads of any
// generation.
func (m migrateWrapper) WrapOpenSequential(name string, kind lsm.FileKind, f vfs.SequentialFile) (vfs.SequentialFile, error) {
	if !m.seals(kind) {
		return f, nil
	}
	hdr, err := readStreamHeader(name, f, migrateHeaderLen)
	if err != nil {
		return nil, err
	}
	h, _, err := parseMigrateHeader(hdr)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	return m.openStream(name, f, h)
}

// Migrate rewrites the store in dir, in place, into the one generation the
// serving path reads, so that Open no longer refuses it with
// lsm.ErrNeedsMigrate. The store must not be open. It
//
//  1. opens the store with the migrate wrapper and ParanoidChecks: every
//     table is checked in full before anything is written, and a table
//     whose manifest anchors a digest but which exposes no tag chain (a
//     sealed table downgraded to v1) fails as tampered. Without
//     opts.BestEffortRecovery such a table, like any corrupt one, fails
//     Migrate with every file unchanged; with it, the table is quarantined
//     into lost/ and dropped, never read;
//  2. lets that open, once it has read every table and WAL, write a fresh
//     MANIFEST and CURRENT and flush what the WALs held;
//  3. re-puts the first and last live key with their own values, so that
//     CompactRange's range covers every bottom-level table, and runs
//     CompactRange, which rewrites every table;
//  4. closes the store and reopens it with the serving wrapper, without
//     BestEffortRecovery. That open is the check that nothing legacy is
//     left: it reads CURRENT, the MANIFEST, every live WAL and every live
//     table through the serving wrapper, and removes every other store file.
//
// An interrupted Migrate leaves a store that Migrate opens again: rerun it.
// A store already current is rewritten once more, which is harmless.
func Migrate(dir string, cfg Config, opts lsm.Options) error {
	serving, err := engineOptions(dir, cfg, opts)
	if err != nil {
		return err
	}
	if _, err := cfg.FS.Stat(path.Join(dir, "CURRENT")); err != nil {
		return fmt.Errorf("core: migrate %s: no store: %w", dir, err)
	}
	serving.ReadOnly = false
	mopts := serving
	mopts.ParanoidChecks = true
	if sw, ok := serving.Wrapper.(*shieldWrapper); ok {
		mopts.Wrapper = migrateWrapper{sw}
	}
	db, err := lsm.Open(dir, mopts)
	if err != nil {
		return fmt.Errorf("core: migrate %s: %w", dir, err)
	}
	err = rewriteTables(db)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("core: migrate %s: %w", dir, err)
	}

	serving.BestEffortRecovery = false
	if db, err = lsm.Open(dir, serving); err == nil {
		err = db.Close()
	}
	if err != nil {
		return fmt.Errorf("core: migrate %s: reopening: %w", dir, err)
	}
	return nil
}

// rewriteTables makes CompactRange rewrite every table of db. CompactRange
// takes all of L0 and the middle levels, but of the bottom level only the
// tables overlapping their range: re-putting the first and last live key,
// each with its own value, puts that whole range into L0.
func rewriteTables(db *lsm.DB) error {
	it, err := db.NewIter()
	if err != nil {
		return err
	}
	var first, firstVal, last, lastVal []byte
	live := false
	for ok := it.First(); ok; ok = it.Next() {
		if !live {
			first = append([]byte(nil), it.Key()...)
			firstVal = append([]byte(nil), it.Value()...)
			live = true
		}
		last = append(last[:0], it.Key()...)
		lastVal = append(lastVal[:0], it.Value()...)
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		return err
	}
	if live {
		if err := db.Put(first, firstVal); err != nil {
			return err
		}
		if err := db.Put(last, lastVal); err != nil {
			return err
		}
	}
	return db.CompactRange()
}
