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
// On disk the cache is a crypt.StateFile whose header carries the PBKDF2
// salt:
//
//	magic(4) version(4) salt(16) iv(16) len(4) ciphertext hmac(32)
//
// The payload (a JSON map of KeyID -> hex DEK) is AES-128-CTR encrypted
// under a PBKDF2-derived key; an HMAC-SHA256 tag over header+ciphertext
// provides tamper evidence.
package seccache

import (
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
	magic      = 0x53434348 // "SCCH"
	saltSize   = 16
	hmacSize   = 32
	pbkdf2Iter = 4096
)

// Errors returned by the cache.
var (
	ErrBadPasskey = errors.New("seccache: passkey mismatch or corrupted cache")
	ErrNotCached  = errors.New("seccache: DEK not in cache")
)

// Cache is a secure, persistent DEK cache. It is safe for concurrent use.
//
// Locking: mu guards the entry map and counters and is never held across
// I/O — Get/Put on other goroutines must not stall behind a disk (or,
// disaggregated, a network) write. Persistence encodes a snapshot under mu
// inside state.Save's turn, which then seals and writes it without mu.
type Cache struct {
	state   crypt.StateFile
	mu      sync.Mutex
	entries map[kds.KeyID]crypt.DEK
	// epochs holds per-store freshness-epoch floors (rollback detection),
	// sealed into the same tamper-evident payload as the DEKs: an attacker
	// who can roll the data directory back cannot roll the floor back
	// without the passkey.
	epochs    map[string]uint64
	hits      int64
	misses    int64
	recovered bool
}

// Open loads (or creates) the cache at path, unsealing it with passkey.
// Opening an existing cache with the wrong passkey fails with ErrBadPasskey.
func Open(fs vfs.FS, path string, passkey []byte) (*Cache, error) {
	c := &Cache{
		state:   crypt.StateFile{FS: fs, Path: path, Magic: magic},
		entries: make(map[kds.KeyID]crypt.DEK),
		epochs:  make(map[string]uint64),
	}
	plain, err := c.state.Load(saltSize, func(salt []byte) { c.deriveKeys(passkey, salt) })
	switch {
	case err == nil:
	case errors.Is(err, vfs.ErrNotFound), errors.Is(err, crypt.ErrStateCorrupt):
		// The cache is only an optimization — every DEK is recoverable from
		// the KDS — so damage that is provably file corruption cold-starts
		// it instead of failing the open.
		c.recovered = errors.Is(err, crypt.ErrStateCorrupt)
		return c, c.coldStart(passkey)
	case errors.Is(err, crypt.ErrStateAuth):
		// Indistinguishable from a wrong passkey, and failing closed is the
		// right call for a security cache.
		return nil, ErrBadPasskey
	default:
		return nil, err
	}
	// The decrypted payload holds every DEK in hex; wipe it once decoded.
	defer crypt.Zeroize(plain)
	if err := c.decode(plain); err != nil {
		return nil, err
	}
	return c, nil
}

// coldStart starts an empty cache under a fresh salt, so derived keys are
// stable from here on.
func (c *Cache) coldStart(passkey []byte) error {
	salt, err := crypt.NewIV()
	if err != nil {
		return err
	}
	c.state.Extra = salt[:saltSize]
	c.deriveKeys(passkey, c.state.Extra)
	return nil
}

// Recovered reports whether Open found a structurally corrupt cache file and
// cold-started instead of loading it (DEKs will re-populate from the KDS).
func (c *Cache) Recovered() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovered
}

func (c *Cache) deriveKeys(passkey, salt []byte) {
	dk := crypt.PBKDF2SHA256(passkey, salt, pbkdf2Iter, crypt.KeySize+hmacSize)
	defer crypt.Zeroize(dk)
	copy(c.state.AES[:], dk[:crypt.KeySize])
	// Copy rather than alias: retaining a sub-slice would keep the whole
	// derived buffer (AES half included) alive and un-wipeable.
	c.state.HMAC = append(c.state.HMAC[:0], dk[crypt.KeySize:]...)
}

// decode fills the maps from an unsealed payload.
func (c *Cache) decode(plain []byte) error {
	var raw map[string]string
	if err := json.Unmarshal(plain, &raw); err != nil {
		return fmt.Errorf("%w: payload decode: %v", ErrBadPasskey, err)
	}
	for id, val := range raw {
		// Freshness-epoch floors share the sealed payload with the DEKs
		// under a reserved prefix no KDS key ID uses.
		if store, ok := strings.CutPrefix(id, epochPrefix); ok {
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

// epochPrefix namespaces freshness-epoch entries inside the sealed payload.
// KDS key IDs never start with "!", so the two spaces cannot collide.
const epochPrefix = "!epoch:"

// EpochFloor returns the sealed freshness-epoch floor for the named store,
// and whether one has ever been sealed.
func (c *Cache) EpochFloor(store string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.epochs[store]
	return e, ok
}

// SealEpoch ratchets the named store's epoch floor up to epoch and persists
// the cache. Lower values are ignored — the floor never moves backwards,
// which is the whole point.
func (c *Cache) SealEpoch(store string, epoch uint64) error {
	c.mu.Lock()
	if cur, ok := c.epochs[store]; ok && cur >= epoch {
		c.mu.Unlock()
		return nil
	}
	c.epochs[store] = epoch
	c.mu.Unlock()
	return c.save()
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

// Put stores a DEK and persists the cache.
func (c *Cache) Put(id kds.KeyID, dek crypt.DEK) error {
	c.mu.Lock()
	c.entries[id] = dek
	c.mu.Unlock()
	return c.save()
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
	c.mu.Unlock()
	return c.save()
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

// save snapshots the current state under mu (CPU only) and has the state
// file seal and write it with mu released, so Get never queues behind
// storage latency — the failure mode the PR 3 degraded-mode work measured
// when the cache directory is slow or remote.
func (c *Cache) save() error {
	err := c.state.Save(func() ([]byte, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.encodeLocked()
	})
	if errors.Is(err, vfs.ErrNoSpace) {
		// A full cache disk must not fail the write path: the cache is an
		// optimization (every DEK is re-fetchable from the KDS) and the
		// entry is already live in memory. Count the drop and keep
		// serving; a later save retries once mutations continue.
		metrics.Storage.CacheSavesDropped.Add(1)
		return nil
	}
	return err
}

// encodeLocked serializes the entry and epoch maps; the state file seals and
// wipes the result. Caller holds mu.
func (c *Cache) encodeLocked() ([]byte, error) {
	raw := make(map[string]string, len(c.entries)+len(c.epochs))
	for id, dek := range c.entries {
		raw[string(id)] = hex.EncodeToString(dek[:])
	}
	for store, e := range c.epochs {
		raw[epochPrefix+store] = strconv.FormatUint(e, 10)
	}
	plain, err := json.Marshal(raw)
	if err != nil {
		return nil, fmt.Errorf("seccache: encode: %w", err)
	}
	return plain, nil
}
