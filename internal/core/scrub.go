package core

import (
	"encoding/binary"

	"shield/internal/lsm"
)

// IsShieldHeader reports whether a file's raw prefix carries the plaintext
// file header (magic "SHLD"), under either key policy.
func IsShieldHeader(prefix []byte) bool {
	return len(prefix) >= 4 && binary.LittleEndian.Uint32(prefix[0:4]) == shieldMagic
}

// EncryptedSniffer recognizes an encrypted file from its raw prefix: the
// current header or the legacy EncFS one. Scrubs use it to skip (rather
// than quarantine) files that fail verification only because the scrubber
// lacks the key. It only sniffs: an EncFS file is never read.
func EncryptedSniffer(prefix []byte) bool {
	return IsShieldHeader(prefix) || isLegacyHeader(prefix)
}

// Scrub runs the offline corruption scrub on the database in dir with cfg's
// encryption design applied, through the same engineOptions as Open: files
// are decrypted exactly as the engine would decrypt them, per-block
// MACs/checksums are verified under the DEKs cfg can resolve, the epoch is
// held against the same sealed floor (opts.AllowRollback accepts a rollback
// and re-stamps the store past the floor), and provably corrupt files are
// quarantined into <dir>/lost/. Files in an encrypted format whose key cfg
// cannot resolve (e.g. the KDS is unreachable, or scrubbing keyless with
// ModeNone) are skipped, never quarantined. The database must not be open on
// dir.
func Scrub(dir string, cfg Config, opts lsm.Options, sopts lsm.ScrubOptions) (*lsm.ScrubReport, error) {
	opts, err := engineOptions(dir, cfg, opts)
	if err != nil {
		return nil, err
	}
	if sopts.Encrypted == nil {
		sopts.Encrypted = EncryptedSniffer
	}
	return lsm.Scrub(dir, opts, sopts)
}
