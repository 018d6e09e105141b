package crypt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"sync"

	"shield/internal/vfs"
)

// A StateLog keeps a small secret state (the secure DEK cache, the KDS key
// table) durable as a record log: a checkpoint marker (the one-byte record
// 0; owners' record types start at 1), the live set the checkpoint wrote,
// then one record per mutation since. A checkpoint writes the live set to
// name.tmp, syncs it, renames it over name and syncs the directory. It runs
// when the owner opens the log, which also replaces the temp a crash during
// a checkpoint left; once the file holds twice the live set of the last
// checkpoint plus StateLogSlack records; and after a failed write, which
// may have left a torn record that nothing may follow.
//
// The owner applies a mutation and seals its record under the owner's lock,
// so the log's order is the order of the mutations, and syncs after
// unlocking; concurrent Syncs share one write. A checkpoint holds the
// owner's lock while it seals the live set. One StateLog per file.
type StateLog struct {
	fs    vfs.FS
	name  string
	magic uint32
	extra []byte
	key   DEK
	state sync.Locker                             // the owner's lock
	live  func(emit func(rec []byte) error) error // emits the live set; runs under state

	mu     sync.Mutex    // guards the fields below; taken inside state, never across I/O
	w      *RecordWriter // the log records are sealed onto; nil: the next Sync checkpoints
	logged int           // records in w's file after its marker
	nLive  int           // records the last checkpoint wrote after its marker

	ioMu sync.Mutex    // one Sync at a time; held across I/O
	file *RecordWriter // the writer of the file installed at name
}

// StateLogSlack is how many records past twice the live set a state log may
// grow before a checkpoint rewrites it, so a near-empty state does not
// rewrite itself on every second mutation.
const StateLogSlack = 64

// NewStateLog returns the log of the state guarded by state, kept at name
// under key with the owner's magic and header extra bytes. live must call
// emit once per record of the live set and nothing of the log's. The log
// has no file of its own until its first Sync, which checkpoints: the owner
// runs it once its state is loaded. If that fails, the file at name stands
// and the next Sync checkpoints again.
func NewStateLog(fs vfs.FS, name string, magic uint32, extra []byte, key DEK, state sync.Locker, live func(emit func(rec []byte) error) error) *StateLog {
	return &StateLog{fs: fs, name: name, magic: magic, extra: extra, key: key, state: state, live: live}
}

// Seal seals rec, the record of a mutation the caller has just applied
// under the owner's lock, which it holds; the caller calls Sync once it has
// unlocked. When a checkpoint is due rec is not sealed: the checkpoint
// writes the state, mutation included. rec may be wiped once Seal returns.
func (l *StateLog) Seal(rec []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w != nil && (l.logged >= 2*l.nLive+StateLogSlack || l.w.Append(rec) != nil) {
		l.w = nil
	}
	l.logged++
}

// Sync returns once every mutation sealed before it is durable: its record
// written and synced, by this Sync or one before it, or part of a
// checkpoint that is. After an error the mutation stays in the owner's
// state, and the next checkpoint writes it.
func (l *StateLog) Sync() error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	w := l.w
	l.mu.Unlock()
	if w == nil {
		return l.checkpoint()
	}
	if err := w.Sync(); err != nil {
		return l.drop(w, err)
	}
	return nil
}

// checkpoint writes the live set as a new file and installs it at name;
// records sealed from its snapshot on go to it. Caller holds ioMu.
func (l *StateLog) checkpoint() error {
	tmp := l.name + ".tmp"
	f, err := l.fs.Create(tmp)
	if err != nil {
		return err
	}
	w, err := NewRecordWriter(f, l.key, l.magic, l.extra)
	if err != nil {
		f.Close()
		return err
	}
	l.state.Lock()
	l.mu.Lock()
	n := 0
	err = w.Append([]byte{0})
	if err == nil {
		err = l.live(func(rec []byte) error {
			n++
			return w.Append(rec)
		})
	}
	if err == nil {
		l.w, l.logged, l.nLive = w, n, n
	}
	l.mu.Unlock()
	l.state.Unlock()
	if err == nil {
		err = w.Sync()
	}
	if err == nil {
		err = l.fs.Rename(tmp, l.name)
	}
	if err == nil {
		err = l.fs.SyncDir(path.Dir(l.name))
	}
	if err != nil {
		w.Close()
		return l.drop(w, err)
	}
	if l.file != nil {
		l.file.Close() //nolint:errcheck // every record that counts was synced
	}
	l.file = w
	return nil
}

// drop makes the next Sync checkpoint if w, whose write failed with err,
// is still the log's writer: the file may end in a torn record. A caller
// whose record went with the failed write and that syncs after this one
// checkpoints too, and so does not see the error.
func (l *StateLog) drop(w *RecordWriter, err error) error {
	l.mu.Lock()
	if l.w == w {
		l.w = nil
	}
	l.mu.Unlock()
	return err
}

// ReplayStateLog applies the records of the state log r reads, after its
// checkpoint marker, to apply in order. A torn last record is dropped. A
// log with no marker first fails as ErrStateCorrupt: every file starts
// with a synced marker, so without one it was cut, not written. A marker
// anywhere else fails as an integrity error, as does a record that fails
// its checks; so may one apply refuses.
func ReplayStateLog(r *RecordReader, apply func(rec []byte) error) error {
	for first := true; ; first = false {
		rec, err := r.Next()
		switch {
		case err == nil:
		case first && (err == io.EOF || errors.Is(err, ErrTornRecord)):
			return fmt.Errorf("%w: no checkpoint record", ErrStateCorrupt)
		case err == io.EOF, errors.Is(err, ErrTornRecord):
			return nil
		default:
			return err
		}
		if marker := len(rec) == 1 && rec[0] == 0; marker != first {
			return fmt.Errorf("crypt: checkpoint marker out of place: %w", vfs.ErrIntegrity)
		}
		if !first {
			if err := apply(rec); err != nil {
				return err
			}
		}
	}
}

// The sealed state file is the layout older builds kept the same states in,
// rewritten whole on every change; a StateLog owner reads one once and
// replaces it with its first checkpoint. Integers little-endian:
//
//	magic(4) version(4) extra iv(16) len(4) ciphertext hmac(32)
//
// The payload is AES-128-CTR encrypted, and an HMAC-SHA256 tag over
// everything before it provides tamper evidence. extra is whatever a reader
// needs before it can derive the keys (the cache's PBKDF2 salt; the KDS has
// none); its length is fixed per magic.
const (
	stateVersion = 1
	stateTagLen  = 32
)

var (
	// ErrStateCorrupt marks damage that is provably file corruption
	// (truncation, bad magic, inconsistent lengths) rather than a possible
	// key mismatch.
	ErrStateCorrupt = errors.New("crypt: structurally corrupt state file")

	// ErrStateAuth reports a state file whose tag does not verify: the wrong
	// key and tampering are indistinguishable.
	ErrStateAuth = errors.New("crypt: state file does not authenticate")

	// ErrStateVersion reports a state file of a layout version this build
	// does not know.
	ErrStateVersion = errors.New("crypt: unsupported state file version")
)

// DecodeStateFile unseals a sealed state file. keys is called with the
// header's extraLen extra bytes once the structure has checked out and
// returns the CTR and HMAC keys, which are wiped after use. The caller
// wipes the returned payload.
func DecodeStateFile(data []byte, magic uint32, extraLen int, keys func(extra []byte) (aes DEK, mac []byte)) ([]byte, error) {
	ivOff := 8 + extraLen
	hdrLen := ivOff + IVSize + 4
	if len(data) < hdrLen+stateTagLen {
		return nil, fmt.Errorf("%w: truncated", ErrStateCorrupt)
	}
	if binary.LittleEndian.Uint32(data[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrStateCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != stateVersion {
		return nil, fmt.Errorf("%w %d", ErrStateVersion, v)
	}
	end := len(data) - stateTagLen
	if n := binary.LittleEndian.Uint32(data[hdrLen-4 : hdrLen]); int64(n) != int64(end-hdrLen) {
		return nil, fmt.Errorf("%w: length mismatch", ErrStateCorrupt)
	}
	aes, mac := keys(data[8:ivOff])
	defer func() {
		Zeroize(aes[:])
		Zeroize(mac)
	}()
	if !VerifyHMACSHA256(mac, data[:end], data[end:]) {
		return nil, ErrStateAuth
	}
	var iv [IVSize]byte
	copy(iv[:], data[ivOff:])
	plain := make([]byte, end-hdrLen)
	if err := EncryptAt(aes, iv, plain, data[hdrLen:end], 0); err != nil {
		return nil, err
	}
	return plain, nil
}
