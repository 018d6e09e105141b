// Package core implements the paper's two encryption designs on top of the
// LSM engine:
//
//   - ModeEncFS — instance-level encryption (Section 4): every file the
//     engine writes, CURRENT included, is encrypted under one instance DEK.
//     There are no per-file keys, no KDS and no rotation.
//
//   - ModeSHIELD — encryption embedded in the write path (Section 5): every
//     WAL, SST, and MANIFEST file gets its own DEK from a KDS; the DEK-ID
//     travels in a plaintext file header (metadata-enabled DEK sharing,
//     Section 5.4); a passkey-sealed secure cache avoids repeated KDS round
//     trips; and compaction rotates DEKs for free — new output files always
//     get new keys, and the old keys are pruned and revoked when their files
//     die.
//
// Both are one lsm.FileWrapper with one file header; they differ only in
// where keys come from. Both batch WAL writes in an application-managed
// buffer before encryption (Section 5.3) and seal SST output in configurable
// chunks, optionally on multiple goroutines (Section 5.2).
//
// The package exposes Open, which wires a Config into lsm.Options and
// returns a regular *lsm.DB.
package core

import (
	"errors"
	"fmt"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

// Mode selects the encryption design.
type Mode int

// Encryption modes.
const (
	// ModeNone runs the plain engine (the "unencrypted RocksDB" baseline).
	ModeNone Mode = iota

	// ModeEncFS encrypts every file under one instance DEK.
	ModeEncFS

	// ModeSHIELD embeds per-file encryption into the engine's write path.
	ModeSHIELD
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeEncFS:
		return "encfs"
	case ModeSHIELD:
		return "shield"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config wires an encryption design around a database.
type Config struct {
	// Mode selects the design.
	Mode Mode

	// FS is the backing filesystem (local, counting, fault-injecting, or
	// the disaggregated-storage client).
	FS vfs.FS

	// InstanceDEK is the single DEK for ModeEncFS, supplied at startup and
	// held only in memory. It must not be all zeros.
	InstanceDEK crypt.DEK

	// KDS issues and resolves per-file DEKs for ModeSHIELD.
	KDS kds.Service

	// Cache, when non-nil, is the secure on-disk DEK cache shared by
	// co-located instances. Optional.
	Cache *seccache.Cache

	// WALBufferSize is the application-managed WAL buffer in bytes
	// (Section 5.3). 0 encrypts and writes every WAL write individually;
	// the paper's default trade-off point is 512 bytes. The WAL's cipher is
	// keyed once per file either way, so the buffer saves write calls, and
	// unsynced bytes it holds are lost if the process crashes.
	WALBufferSize int

	// EncryptionThreads is the number of goroutines encrypting SST chunks
	// concurrently (Section 5.2's multi-threaded compaction encryption).
	// Values <= 1 encrypt inline.
	EncryptionThreads int

	// RevokeOnDelete revokes a file's DEK at the KDS when the file is
	// deleted (after compaction), making stale DEK-IDs useless even to
	// authorized servers.
	RevokeOnDelete bool
}

// Validate checks mode-specific requirements.
func (c Config) Validate() error {
	if c.FS == nil {
		return errors.New("core: Config.FS is required")
	}
	if c.Mode == ModeSHIELD && c.KDS == nil {
		return errors.New("core: ModeSHIELD requires a KDS")
	}
	if c.Mode == ModeEncFS && c.InstanceDEK == (crypt.DEK{}) {
		return errors.New("core: ModeEncFS requires an InstanceDEK")
	}
	return nil
}

// BuildFS validates c and returns the filesystem the engine runs on: c.FS
// itself, since both designs encrypt in the file wrapper.
func (c Config) BuildFS() (vfs.FS, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c.FS, nil
}

// BuildWrapper returns the engine file wrapper: the encrypting wrapper with
// the mode's key policy, or the identity wrapper for ModeNone.
func (c Config) BuildWrapper() (lsm.FileWrapper, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	switch c.Mode {
	case ModeEncFS, ModeSHIELD:
		return newShieldWrapper(c), nil
	}
	return lsm.NopWrapper{}, nil
}

// cacheFreshness anchors a store's freshness epoch in the passkey-sealed
// secure cache: the floor lives in the same tamper-evident payload as the
// DEKs, outside the data directory, so rolling the data back cannot roll
// the floor back.
type cacheFreshness struct {
	cache *seccache.Cache
	store string
}

// EpochFloor implements lsm.FreshnessStore.
func (f cacheFreshness) EpochFloor() (uint64, bool) { return f.cache.EpochFloor(f.store) }

// SealEpoch implements lsm.FreshnessStore.
func (f cacheFreshness) SealEpoch(epoch uint64) error { return f.cache.SealEpoch(f.store, epoch) }

// Open opens a database in dir with the encryption design applied (see
// engineOptions).
func Open(dir string, cfg Config, opts lsm.Options) (*lsm.DB, error) {
	opts, err := engineOptions(dir, cfg, opts)
	if err != nil {
		return nil, err
	}
	return lsm.Open(dir, opts)
}

// engineOptions fills opts with what cfg decides for the store in dir: FS
// and Wrapper come from cfg, and under ModeSHIELD with a secure cache
// Freshness defaults to an epoch floor sealed into that cache, making
// recovery rollback-proof (fail closed on epoch regression). Open and Scrub
// both start here, so a scrub decrypts and checks the epoch exactly as an
// open does.
func engineOptions(dir string, cfg Config, opts lsm.Options) (lsm.Options, error) {
	wrapper, err := cfg.BuildWrapper()
	if err != nil {
		return opts, err
	}
	opts.FS = cfg.FS
	opts.Wrapper = wrapper
	if opts.Freshness == nil && cfg.Mode == ModeSHIELD && cfg.Cache != nil {
		opts.Freshness = cacheFreshness{cache: cfg.Cache, store: dir}
	}
	return opts, nil
}
