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
// On disk the cache is a crypt.StateLog whose header carries the PBKDF2
// salt:
//
//	magic(4) version(4) salt(16) nonce-prefix(8) record...
//	record = len(4) AES-GCM(body) tag(16) end(1)
//
// A checkpoint writes one put record per DEK and one epoch record per
// store's freshness floor; after it every Put, Delete and raised epoch floor
// appends one record and syncs before it returns, so a mutation costs the
// same bytes whatever the size of the cache. The log is sealed under a GCM
// key derived by HKDF from the PBKDF2 output of the passkey and salt; nonce
// and AAD chain every record to its index and to the tag before it, so a
// flipped byte, a reordered or a foreign record fails closed. A last record
// that a crash tore (cut short, or zero from where its data stopped to the
// end of the file) is dropped: its call never returned. One Cache owns its
// file: a second Cache on the same path replaces the file at its Open.
//
// A file in the layout of older builds (a crypt sealed state file: a JSON
// map under AES-CTR and HMAC-SHA256, magic "SCCH") is read once and
// rewritten as the first checkpoint, keeping its salt.
package seccache

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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

	// checkpointSlack is the log's growth allowance past twice the live set,
	// which the crash test sizes its churn by.
	checkpointSlack = crypt.StateLogSlack
)

// Record types: the first byte of every record's plaintext after the log's
// checkpoint marker.
const (
	recPut    = iota + 1 // dek(16) ‖ id
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
// Locking: mu guards the maps and counters. A mutation changes the maps and
// seals its record under mu, so records reach the log in the order the maps
// change, and syncs after releasing it, so Get never waits on a disk (or,
// disaggregated, a network) write. A checkpoint takes mu while it seals the
// live set.
type Cache struct {
	salt []byte
	key  crypt.DEK // the log's GCM key
	log  *crypt.StateLog

	mu      sync.Mutex
	entries map[kds.KeyID]crypt.DEK
	// epochs holds per-store freshness-epoch floors (rollback detection),
	// sealed into the same tamper-evident log as the DEKs: an attacker who
	// can roll the data directory back cannot roll the floor back without
	// the passkey.
	epochs    map[string]uint64
	rec       []byte // plaintext of the record being sealed; wiped after
	hits      int64
	misses    int64
	recovered bool
}

// Open loads (or creates) the cache at path, unsealing it with passkey.
// Opening an existing cache with the wrong passkey fails with ErrBadPasskey.
func Open(fs vfs.FS, path string, passkey []byte) (*Cache, error) {
	c := &Cache{
		entries: make(map[kds.KeyID]crypt.DEK),
		epochs:  make(map[string]uint64),
	}
	data, err := vfs.ReadFile(fs, path)
	switch {
	case errors.Is(err, vfs.ErrNotFound):
		err = c.coldStart(passkey)
	case err != nil:
		return nil, err
	case len(data) >= 4 && binary.LittleEndian.Uint32(data) == v1Magic:
		err = c.loadV1(data, passkey)
	default:
		var r *crypt.RecordReader
		if r, err = c.logReader(data, passkey); err == nil {
			err = crypt.ReplayStateLog(r, c.apply)
		}
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
	c.log = crypt.NewStateLog(fs, path, logMagic, c.salt, c.key, &c.mu, c.writeLive)
	// The first Sync checkpoints. If it fails, the file on disk is still the
	// one just loaded, and the first mutation checkpoints again.
	_ = c.dropped(c.log.Sync())
	return c, nil
}

// deriveKeys keeps salt and the log's GCM key, which HKDF derives from the
// first 32 bytes of the master key: the PBKDF2 output of passkey and salt.
// It returns the master key's n bytes, 32 for the log key alone and 48 for
// the v1 layout's CTR and HMAC keys too; the caller wipes them.
func (c *Cache) deriveKeys(passkey, salt []byte, n int) []byte {
	c.salt = append([]byte(nil), salt...)
	mk := crypt.PBKDF2SHA256(passkey, salt, pbkdf2Iter, n)
	k := crypt.HKDFSHA256(mk[:32], nil, []byte(logKeyLabel), crypt.KeySize)
	copy(c.key[:], k)
	crypt.Zeroize(k)
	return mk
}

// coldStart starts an empty cache under a fresh salt, so derived keys are
// stable from here on.
func (c *Cache) coldStart(passkey []byte) error {
	salt, err := crypt.NewIV()
	if err != nil {
		return err
	}
	crypt.Zeroize(c.deriveKeys(passkey, salt[:saltSize], 32))
	return nil
}

// logReader keys a reader for the record log in data under passkey and
// the salt in its header, which it keeps with the log key.
func (c *Cache) logReader(data, passkey []byte) (*crypt.RecordReader, error) {
	return crypt.NewRecordReader(data, logMagic, saltSize, func(salt []byte) (crypt.DEK, error) {
		crypt.Zeroize(c.deriveKeys(passkey, salt, 32))
		return c.key, nil
	})
}

// apply applies one replayed record to the maps (Open runs it before the
// cache is shared, so without locks).
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
	return fmt.Errorf("seccache: undecodable record of %d bytes: %w", len(rec), vfs.ErrIntegrity)
}

// loadV1 fills the maps from a file in the layout of older builds (a crypt
// sealed state file), keeping its salt for the log that replaces it.
func (c *Cache) loadV1(data, passkey []byte) error {
	plain, err := crypt.DecodeStateFile(data, v1Magic, saltSize, func(salt []byte) (aes crypt.DEK, mac []byte) {
		mk := c.deriveKeys(passkey, salt, crypt.KeySize+hmacSize)
		defer crypt.Zeroize(mk)
		copy(aes[:], mk[:crypt.KeySize])
		// Copy rather than alias: retaining a sub-slice would keep the
		// whole derived buffer alive and un-wipeable.
		return aes, append(mac, mk[crypt.KeySize:]...)
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
	c.mu.Lock()
	if cur, ok := c.epochs[store]; ok && cur >= epoch {
		c.mu.Unlock()
		return nil
	}
	c.epochs[store] = epoch
	return c.seal(appendEpoch(c.rec[:0], store, epoch))
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
	c.mu.Lock()
	c.entries[id] = dek
	return c.seal(appendPut(c.rec[:0], id, dek))
}

// Delete removes a DEK — called when its file is deleted after compaction,
// ensuring only current keys remain accessible.
func (c *Cache) Delete(id kds.KeyID) error {
	c.mu.Lock()
	if _, ok := c.entries[id]; !ok {
		c.mu.Unlock()
		return nil
	}
	delete(c.entries, id)
	return c.seal(append(append(c.rec[:0], recDelete), id...))
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

// seal makes the mutation whose record is rec durable: it seals rec onto
// the log and wipes it, releases mu, which the caller holds with the maps
// already changed, and syncs.
func (c *Cache) seal(rec []byte) error {
	c.log.Seal(rec)
	crypt.Zeroize(rec)
	c.rec = rec
	c.mu.Unlock()
	return c.dropped(c.log.Sync())
}

// dropped absorbs a full cache disk: it must not fail the write path, since
// the cache is an optimization (every DEK is re-fetchable from the KDS) and
// the entry is already live in memory. The drop is counted and the log
// checkpoints on the next mutation.
func (c *Cache) dropped(err error) error {
	if errors.Is(err, vfs.ErrNoSpace) {
		metrics.Storage.CacheSavesDropped.Add(1)
		return nil
	}
	return err
}

// writeLive emits one record per DEK and epoch floor: the live set a
// checkpoint writes. The log calls it with mu held.
func (c *Cache) writeLive(emit func(rec []byte) error) error {
	rec := c.rec[:0]
	defer func() {
		crypt.Zeroize(rec[:cap(rec)])
		c.rec = rec
	}()
	for id, dek := range c.entries {
		rec = appendPut(rec[:0], id, dek)
		if err := emit(rec); err != nil {
			return err
		}
	}
	for store, e := range c.epochs {
		rec = appendEpoch(rec[:0], store, e)
		if err := emit(rec); err != nil {
			return err
		}
	}
	return nil
}
