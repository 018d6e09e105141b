package lsm

import (
	"errors"
	"fmt"
)

// ErrCorruption is the sentinel all persistent-state corruption errors wrap:
// a bad SST block checksum, an undecodable manifest record, a missing file
// the manifest still references. Test with errors.Is. A torn WAL tail is NOT
// corruption — it is the expected power-loss outcome and recovery truncates
// it silently.
var ErrCorruption = errors.New("lsm: corruption")

// ErrDegraded is the sentinel wrapped by every write rejected because the DB
// has poisoned itself into read-only degraded mode: a WAL append, flush, or
// manifest write failed (ENOSPC, I/O error), so accepting further writes
// could silently lose them. Reads keep being served from the state that was
// durable before the failure. The underlying cause is wrapped alongside, so
// errors.Is(err, ErrDegraded) and errors.Is(err, vfs.ErrNoSpace) can both
// hold. Reopening the DB after the cause is cleared exits degraded mode and
// recovers every previously-acked write from the WAL and manifest.
var ErrDegraded = errors.New("lsm: degraded (read-only) mode")

// ErrIntegrity is the sentinel wrapped by every authenticated-read failure:
// a sealed record whose AEAD tag did not verify, or an SST whose
// tag-chain digest disagrees with the manifest. Unlike a block-checksum
// mismatch (which CRC32 can miss under an adversary), an integrity failure
// is cryptographic proof the ciphertext was altered after sealing. Every
// IntegrityError also wraps ErrCorruption, so existing corruption handling
// (quarantine, best-effort recovery) applies unchanged.
var ErrIntegrity = errors.New("lsm: integrity violation")

// ErrEpochRegression is the sentinel wrapped by the fail-closed open error
// when the store's freshness epoch has moved backwards: the manifest the
// disk presents carries an epoch older than the floor sealed into the local
// freshness store, proving the persistent state was rolled back to an
// earlier (validly-encrypted) snapshot. Recovery refuses to proceed unless
// Options.AllowRollback acknowledges the regression.
var ErrEpochRegression = errors.New("lsm: freshness epoch regression (store rolled back)")

// ErrNeedsMigrate is the sentinel wrapped by the refusal to read a file in an
// on-disk generation only an older build wrote (the wrapper decides which
// generations those are). The error names the file. It is not corruption:
// it wraps none of ErrCorruption, vfs.ErrIntegrity, vfs.ErrNotFound or
// io.EOF, so Open fails on it even under BestEffortRecovery and Scrub fails
// on it, and neither drops, quarantines or skips the file. The way forward
// is the offline migration (core.Migrate, `shield-server -migrate`).
var ErrNeedsMigrate = errors.New("lsm: file from an older build needs migration (shield-server -migrate)")

// ErrJobLost is the sentinel wrapped by an offloaded-compaction failure in
// which the job could not be completed by any worker: every lease expired
// (worker died mid-job) or no worker claimed the job before its deadline.
// The orchestrator has already swept the dead attempts' fenced output-file
// ranges, and the manifest was never touched, so the inputs are fully
// retained — the engine treats it exactly like a local ENOSPC abort:
// compactions halt (no degraded mode, no poisoning) until the next
// successful flush re-arms them.
var ErrJobLost = errors.New("lsm: compaction job lost (no worker completed it)")

// CorruptionError describes one corrupt (or missing-but-referenced)
// persistent file. It wraps both ErrCorruption and the underlying cause, so
// errors.Is works against either.
type CorruptionError struct {
	Path   string
	Kind   FileKind
	Detail string
	Err    error // underlying cause; may be nil
}

// Error implements error.
func (e *CorruptionError) Error() string {
	msg := fmt.Sprintf("lsm: corruption in %s %s: %s", e.Kind, e.Path, e.Detail)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap lets errors.Is(err, ErrCorruption) and errors.Is(err, cause) both
// succeed.
func (e *CorruptionError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrCorruption, e.Err}
	}
	return []error{ErrCorruption}
}

// IntegrityError describes one file whose contents failed cryptographic
// authentication: a sealed block's AEAD tag did not verify, or the file's
// tag-chain digest disagrees with the digest the manifest recorded when the
// file was installed. It is returned instead of plaintext — a read that
// fails authentication never yields bytes. It wraps ErrIntegrity,
// ErrCorruption, and the underlying cause.
type IntegrityError struct {
	Path   string
	Kind   FileKind
	Detail string
	Err    error // underlying cause; may be nil
}

// Error implements error.
func (e *IntegrityError) Error() string {
	msg := fmt.Sprintf("lsm: integrity violation in %s %s: %s", e.Kind, e.Path, e.Detail)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap lets errors.Is succeed against ErrIntegrity, ErrCorruption, and
// the cause. Wrapping ErrCorruption too means every corruption-aware path
// (best-effort recovery, scrub classification, checker taint rules) treats
// an authentication failure at least as seriously as a checksum mismatch.
func (e *IntegrityError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrIntegrity, ErrCorruption, e.Err}
	}
	return []error{ErrIntegrity, ErrCorruption}
}
