// Package seccache implements SHIELD's secure local DEK cache
// (Section 5.2): an on-disk store of previously used DEKs, sealed with a
// key derived from a server passkey that is never persisted.
//
// The cache removes the need to re-request every DEK from the KDS on
// database restart, and can be shared by multiple LSM-KVS instances on the
// same server (as in ZippyDB-style deployments) provided they hold the
// passkey. During DEK rotation the new DEK is inserted and the DEK of the
// compacted-away file is deleted, so only keys for live files remain
// recoverable.
//
// On disk the cache is a crypt record log whose header carries the PBKDF2
// salt:
//
//	magic(4) version(4) salt(16) nonce-prefix(8) record...
//	record = len(4) AES-GCM(body) tag(16) end(1)
//
// The first record of a file is a checkpoint marker; the live set follows
// it, one put record per DEK and one epoch record per store's freshness
// floor. After that every Put, Delete and raised epoch floor appends one
// record and syncs before it returns, so a mutation costs the same bytes
// whatever the size of the cache. The log is sealed under a GCM key derived
// by HKDF from the PBKDF2 output of the passkey and salt; nonce and AAD
// chain every record to its index and to the tag before it, so a flipped
// byte, a reordered or a foreign record fails closed. A last record that a
// crash tore (cut short, or zero from where its data stopped to the end of
// the file) is dropped: its call never returned.
//
// A checkpoint writes the live set to path.tmp, syncs it, renames it over
// path and syncs the directory. It runs at Open and whenever the log holds
// more than twice the live set (plus checkpointSlack records), and its
// handle is the one later records append to. One Cache owns its file: a
// second Cache on the same path replaces the file at its Open.
//
// A file in the layout of older builds (a crypt.StateFile sealing a JSON
// map under AES-CTR and HMAC-SHA256, magic "SCCH") is read once and
// rewritten as the first checkpoint, keeping its salt.
package seccache

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path"
	"strconv"
	"strings"
	"sync"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/metrics"
	"shield/internal/vfs"
)

const (
	logMagic   = 0x4C434353 // "SCCL"
	v1Magic    = 0x53434348 // "SCCH", the sealed-state layout of older builds
	saltSize   = 16
	hmacSize   = 32
	pbkdf2Iter = 4096

	// logKeyLabel is the HKDF info that separates the log's GCM key from
	// the v1 layout's CTR and HMAC keys, which share its PBKDF2 input.
	logKeyLabel = "shield seccache record log v1"

	// checkpointSlack is how many records past twice the live set the log
	// may grow before a checkpoint rewrites it, so a near-empty cache does
	// not rewrite itself on every second mutation.
	checkpointSlack = 64
)

// Record types: the first byte of every record's plaintext.
const (
	recCheckpoint = iota // first record of every file; no body
	recPut               // dek(16) ‖ id
	recDelete            // id
	recEpoch             // u64 epoch ‖ store
)

// Errors returned by the cache.
var (
	ErrBadPasskey = errors.New("seccache: passkey mismatch or corrupted cache")
	ErrNotCached  = errors.New("seccache: DEK not in cache")
)

// Cache is a secure, persistent DEK cache. It is safe for concurrent use.
//
// Locking: logMu serializes mutations and owns the log, so records reach
// the file in the order the maps change; it is held across the append and
// the sync. mu guards the maps and counters and is never held across I/O,
// so Get does not wait on a disk (or, disaggregated, a network) write. The
// maps change only under both locks, so a holder of either may read them:
// a checkpoint walks them under logMu alone.
type Cache struct {
	fs   vfs.FS
	path string
	salt []byte
	key  crypt.DEK // the log's GCM key

	logMu  sync.Mutex
	log    *crypt.RecordWriter // nil: the next mutation checkpoints first
	logged int                 // records in the current file after its checkpoint marker
	rec    []byte              // plaintext of the record being appended; wiped after

	mu      sync.Mutex
	entries map[kds.KeyID]crypt.DEK
	// epochs holds per-store freshness-epoch floors (rollback detection),
	// sealed into the same tamper-evident log as the DEKs: an attacker who
	// can roll the data directory back cannot roll the floor back without
	// the passkey.
	epochs    map[string]uint64
	hits      int64
	misses    int64
	recovered bool
}

// Open loads (or creates) the cache at path, unsealing it with passkey.
// Opening an existing cache with the wrong passkey fails with ErrBadPasskey.
func Open(fs vfs.FS, path string, passkey []byte) (*Cache, error) {
	c := &Cache{
		fs:      fs,
		path:    path,
		entries: make(map[kds.KeyID]crypt.DEK),
		epochs:  make(map[string]uint64),
	}
	data, err := vfs.ReadReplaced(fs, path)
	switch {
	case errors.Is(err, vfs.ErrNotFound):
		err = c.coldStart(passkey)
	case err != nil:
		return nil, err
	case len(data) >= 4 && binary.LittleEndian.Uint32(data) == v1Magic:
		err = c.loadV1(passkey)
	default:
		err = c.replay(data, passkey)
	}
	switch {
	case err == nil:
	case errors.Is(err, crypt.ErrStateCorrupt):
		// The cache is only an optimization — every DEK is recoverable from
		// the KDS — so damage that is provably file corruption cold-starts
		// it instead of failing the open.
		c.recovered = true
		clear(c.entries)
		clear(c.epochs)
		if err := c.coldStart(passkey); err != nil {
			return nil, err
		}
	case errors.Is(err, crypt.ErrStateAuth), errors.Is(err, vfs.ErrIntegrity):
		// Indistinguishable from a wrong passkey, and failing closed is the
		// right call for a security cache.
		return nil, ErrBadPasskey
	default:
		return nil, err
	}
	// Start this process's log with a checkpoint. If it cannot be written,
	// the file on disk is still the one just loaded, and the first mutation
	// checkpoints again (c.log stays nil).
	c.logMu.Lock()
	defer c.logMu.Unlock()
	_ = c.dropped(c.checkpoint()) // retried by the first mutation; the loaded file stands
	return c, nil
}

// masterKey is the PBKDF2 output every key of the cache comes from: n
// bytes, 32 for the log key alone and 48 for the v1 layout's CTR and HMAC
// keys, whose first 32 bytes are the same.
func masterKey(passkey, salt []byte, n int) []byte {
	return crypt.PBKDF2SHA256(passkey, salt, pbkdf2Iter, n)
}

// setLogKey derives the log's GCM key from the first 32 bytes of the
// master key.
func (c *Cache) setLogKey(mk []byte) {
	k := crypt.HKDFSHA256(mk[:32], nil, []byte(logKeyLabel), crypt.KeySize)
	defer crypt.Zeroize(k)
	copy(c.key[:], k)
}

// coldStart starts an empty cache under a fresh salt, so derived keys are
// stable from here on.
func (c *Cache) coldStart(passkey []byte) error {
	salt, err := crypt.NewIV()
	if err != nil {
		return err
	}
	c.salt = salt[:saltSize]
	mk := masterKey(passkey, c.salt, 32)
	defer crypt.Zeroize(mk)
	c.setLogKey(mk)
	return nil
}

// logReader keys a reader for the record log in data under passkey and
// the salt in its header, which it keeps with the log key.
func (c *Cache) logReader(data, passkey []byte) (*crypt.RecordReader, error) {
	return crypt.NewRecordReader(data, logMagic, saltSize, func(salt []byte) (crypt.DEK, error) {
		c.salt = append([]byte(nil), salt...)
		mk := masterKey(passkey, salt, 32)
		defer crypt.Zeroize(mk)
		c.setLogKey(mk)
		return c.key, nil
	})
}

// replay fills the maps from a record log. A torn last record is dropped:
// its mutation never returned, and the checkpoint that follows Open leaves
// it out of the file.
func (c *Cache) replay(data, passkey []byte) error {
	r, err := c.logReader(data, passkey)
	if err != nil {
		return err
	}
	for first := true; ; first = false {
		rec, err := r.Next()
		switch {
		case err == nil:
		case first && (err == io.EOF || errors.Is(err, crypt.ErrTornRecord)):
			// Every file starts with a synced checkpoint marker: without
			// one it was cut, not written.
			return fmt.Errorf("%w: no checkpoint record", crypt.ErrStateCorrupt)
		case err == io.EOF, errors.Is(err, crypt.ErrTornRecord):
			return nil
		default:
			return err
		}
		if marker := len(rec) == 1 && rec[0] == recCheckpoint; marker != first {
			return fmt.Errorf("%w: checkpoint marker out of place", ErrBadPasskey)
		}
		if !first {
			if err := c.apply(rec); err != nil {
				return err
			}
		}
	}
}

// apply applies one authenticated record to the maps (Open runs it before
// the cache is shared, so without locks).
func (c *Cache) apply(rec []byte) error {
	if len(rec) > 0 {
		switch t, body := rec[0], rec[1:]; {
		case t == recPut && len(body) > crypt.KeySize:
			var dek crypt.DEK
			copy(dek[:], body)
			c.entries[kds.KeyID(body[crypt.KeySize:])] = dek
			return nil
		case t == recDelete:
			delete(c.entries, kds.KeyID(body))
			return nil
		case t == recEpoch && len(body) >= 8:
			c.epochs[string(body[8:])] = binary.LittleEndian.Uint64(body)
			return nil
		}
	}
	return fmt.Errorf("%w: undecodable record of %d bytes", ErrBadPasskey, len(rec))
}

// loadV1 fills the maps from a file in the layout of older builds (a
// crypt.StateFile), keeping its salt for the log that replaces it.
func (c *Cache) loadV1(passkey []byte) error {
	st := crypt.StateFile{FS: c.fs, Path: c.path, Magic: v1Magic}
	defer func() {
		crypt.Zeroize(st.AES[:])
		crypt.Zeroize(st.HMAC)
	}()
	plain, err := st.Load(saltSize, func(salt []byte) {
		c.salt = append([]byte(nil), salt...)
		mk := masterKey(passkey, salt, crypt.KeySize+hmacSize)
		defer crypt.Zeroize(mk)
		copy(st.AES[:], mk[:crypt.KeySize])
		// Copy rather than alias: retaining a sub-slice would keep the
		// whole derived buffer alive and un-wipeable.
		st.HMAC = append(st.HMAC[:0], mk[crypt.KeySize:]...)
		c.setLogKey(mk)
	})
	if err != nil {
		return err
	}
	// The decrypted payload holds every DEK in hex; wipe it once decoded.
	defer crypt.Zeroize(plain)
	return c.decodeV1(plain)
}

// decodeV1 fills the maps from a v1 payload: a JSON map of KeyID -> hex
// DEK, with the freshness-epoch floors under a reserved prefix.
func (c *Cache) decodeV1(plain []byte) error {
	var raw map[string]string
	if err := json.Unmarshal(plain, &raw); err != nil {
		return fmt.Errorf("%w: payload decode: %v", ErrBadPasskey, err)
	}
	for id, val := range raw {
		if store, ok := strings.CutPrefix(id, v1EpochPrefix); ok {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("seccache: bad epoch encoding for %s: %w", store, err)
			}
			c.epochs[store] = n
			continue
		}
		kb, err := hex.DecodeString(val)
		if err != nil {
			return fmt.Errorf("seccache: bad key encoding for %s: %w", id, err)
		}
		dek, err := crypt.DEKFromBytes(kb)
		crypt.Zeroize(kb)
		if err != nil {
			return err
		}
		c.entries[kds.KeyID(id)] = dek
	}
	return nil
}

// v1EpochPrefix namespaced freshness-epoch entries inside the v1 payload.
// KDS key IDs never start with "!", so the two spaces could not collide.
const v1EpochPrefix = "!epoch:"

// Recovered reports whether Open found a structurally corrupt cache file and
// cold-started instead of loading it (DEKs will re-populate from the KDS).
func (c *Cache) Recovered() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovered
}

// EpochFloor returns the sealed freshness-epoch floor for the named store,
// and whether one has ever been sealed.
func (c *Cache) EpochFloor(store string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.epochs[store]
	return e, ok
}

// SealEpoch ratchets the named store's epoch floor up to epoch and persists
// it. Lower values are ignored — the floor never moves backwards, which is
// the whole point.
func (c *Cache) SealEpoch(store string, epoch uint64) error {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	c.mu.Lock()
	if cur, ok := c.epochs[store]; ok && cur >= epoch {
		c.mu.Unlock()
		return nil
	}
	c.epochs[store] = epoch
	c.mu.Unlock()
	return c.persist(appendEpoch(c.rec[:0], store, epoch))
}

// Get returns the cached DEK for id, or ErrNotCached.
func (c *Cache) Get(id kds.KeyID) (crypt.DEK, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dek, ok := c.entries[id]
	if !ok {
		c.misses++
		return crypt.DEK{}, fmt.Errorf("%w: %s", ErrNotCached, id)
	}
	c.hits++
	return dek, nil
}

// Put stores a DEK and persists it.
func (c *Cache) Put(id kds.KeyID, dek crypt.DEK) error {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	c.mu.Lock()
	c.entries[id] = dek
	c.mu.Unlock()
	return c.persist(appendPut(c.rec[:0], id, dek))
}

// Delete removes a DEK — called when its file is deleted after compaction,
// ensuring only current keys remain accessible.
func (c *Cache) Delete(id kds.KeyID) error {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	c.mu.Lock()
	if _, ok := c.entries[id]; !ok {
		c.mu.Unlock()
		return nil
	}
	delete(c.entries, id)
	c.mu.Unlock()
	return c.persist(append(append(c.rec[:0], recDelete), id...))
}

//shield:notestonly the number of cached DEKs, for the secure-cache tests to assert on
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats reports hit/miss counters.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func appendPut(b []byte, id kds.KeyID, dek crypt.DEK) []byte {
	return append(append(append(b, recPut), dek[:]...), id...)
}

func appendEpoch(b []byte, store string, epoch uint64) []byte {
	return append(binary.LittleEndian.AppendUint64(append(b, recEpoch), epoch), store...)
}

// persist makes the mutation whose record is rec durable: it appends rec
// and syncs, or checkpoints instead when the log is gone (a failed append
// left it possibly torn) or would pass twice the live set. rec is wiped.
// Caller holds logMu, and the maps already hold the mutation.
func (c *Cache) persist(rec []byte) error {
	c.rec = rec
	defer func() { crypt.Zeroize(c.rec[:cap(c.rec)]) }()
	if c.log == nil || c.logged >= 2*(len(c.entries)+len(c.epochs))+checkpointSlack {
		return c.dropped(c.checkpoint())
	}
	err := c.log.Append(rec)
	if err == nil {
		err = c.log.Sync()
	}
	if err != nil {
		// The file may now end in a torn record, and no record may follow
		// it: the next mutation rewrites the file first.
		c.closeLog()
		return c.dropped(err)
	}
	c.logged++
	return nil
}

// dropped absorbs a full cache disk: it must not fail the write path, since
// the cache is an optimization (every DEK is re-fetchable from the KDS) and
// the entry is already live in memory. The drop is counted and the next
// mutation checkpoints.
func (c *Cache) dropped(err error) error {
	if errors.Is(err, vfs.ErrNoSpace) {
		metrics.Storage.CacheSavesDropped.Add(1)
		return nil
	}
	return err
}

// checkpoint writes the live set as a new log to path.tmp, syncs it,
// renames it over path and syncs the directory; its handle then takes the
// appends. On failure the file at path is the previous log, intact, and
// c.log stays nil. Caller holds logMu, which makes walking the maps safe
// without mu: Get only reads them.
func (c *Cache) checkpoint() error {
	c.closeLog()
	tmp := c.path + ".tmp"
	f, err := c.fs.Create(tmp)
	if err != nil {
		return err
	}
	w, err := crypt.NewRecordWriter(f, c.key, logMagic, c.salt)
	if err != nil {
		f.Close()
		return err
	}
	err = c.writeLive(w)
	if err == nil {
		err = w.Sync()
	}
	if err == nil {
		err = c.fs.Rename(tmp, c.path)
	}
	if err == nil {
		err = c.fs.SyncDir(path.Dir(c.path))
	}
	if err != nil {
		w.Close()
		return err
	}
	c.log, c.logged = w, len(c.entries)+len(c.epochs)
	return nil
}

// writeLive appends the checkpoint marker and one record per DEK and epoch
// floor to w. Caller holds logMu.
func (c *Cache) writeLive(w *crypt.RecordWriter) error {
	rec := append(c.rec[:0], recCheckpoint)
	defer func() {
		crypt.Zeroize(rec[:cap(rec)])
		c.rec = rec
	}()
	if err := w.Append(rec); err != nil {
		return err
	}
	for id, dek := range c.entries {
		rec = appendPut(rec[:0], id, dek)
		if err := w.Append(rec); err != nil {
			return err
		}
	}
	for store, e := range c.epochs {
		rec = appendEpoch(rec[:0], store, e)
		if err := w.Append(rec); err != nil {
			return err
		}
	}
	return nil
}

// closeLog closes the log's handle, if any; the file stays as it is.
func (c *Cache) closeLog() {
	if c.log != nil {
		c.log.Close() //nolint:errcheck // every record that counts was synced
		c.log = nil
	}
}
