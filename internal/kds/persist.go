package kds

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"shield/internal/crypt"
	"shield/internal/vfs"
)

// KDS persistence: without it, a KDS restart would lose every issued DEK
// that is not mirrored in some secure cache — i.e. permanent data loss for
// the databases depending on it. A durable Store journals each change of
// its keys and servers to a crypt.StateLog sealed under a key derived from
// a master key (the KDS's own root secret, which a deployment guards with
// an HSM or operator passphrase; here it is supplied by the caller). A key
// record carries the whole entry, so an issue, a budget use and a revoke
// each append one; a revoked key's record is a tombstone without key bytes.
// The fetch and denial counters are not journalled, nor is the create-token
// window, so a retry that straddles a restart mints a fresh key — a bounded
// leak, never a lost one.

const (
	logMagic      = 0x4b44534c       // "KDSL"
	v1Magic       = 0x4b445350       // "KDSP", the JSON snapshot of older builds, upgraded at open
	persistKeyTag = "kds-persist-v1" // HKDF salt of every key derived from the master key
)

// Record types: the first byte of a record after the log's checkpoint
// marker. id is preceded by its uvarint length.
const (
	recKey       = iota + 1 // dek(16) ‖ uvarint fetches ‖ id ‖ creator
	recTombstone            // uvarint fetches ‖ id ‖ creator: a revoked key
	recServer               // enrolled(1) ‖ server
)

// ErrBadMasterKey reports that the key store cannot be authenticated.
var ErrBadMasterKey = errors.New("kds: master key mismatch or corrupted snapshot")

// OpenPersistentStore loads (or initializes) the durable key store at path,
// sealed with masterKey, and returns it with its log attached. Unlike the
// secure cache, this file is the only copy of the keys: damage of any kind
// fails closed with ErrBadMasterKey.
func OpenPersistentStore(fs vfs.FS, path string, masterKey []byte, policy Policy) (*Store, error) {
	s := NewStore(policy)
	key, err := logKey(masterKey)
	if err != nil {
		return nil, err
	}
	data, err := vfs.ReadFile(fs, path)
	switch {
	case errors.Is(err, vfs.ErrNotFound):
		err = nil
	case err != nil:
	case len(data) >= 4 && binary.LittleEndian.Uint32(data) == v1Magic:
		err = s.loadV1(data, masterKey)
	default:
		var r *crypt.RecordReader
		r, err = crypt.NewRecordReader(data, logMagic, 0, func([]byte) (crypt.DEK, error) { return key, nil })
		if err == nil {
			err = crypt.ReplayStateLog(r, s.apply)
		}
	}
	switch {
	case errors.Is(err, crypt.ErrStateCorrupt), errors.Is(err, crypt.ErrStateAuth), errors.Is(err, vfs.ErrIntegrity):
		return nil, fmt.Errorf("%w: %v", ErrBadMasterKey, err)
	case err != nil:
		return nil, err
	}
	s.log = crypt.NewStateLog(fs, path, logMagic, nil, key, &s.mu, s.writeLive)
	// The first Sync checkpoints. If it fails, the loaded file stands and the
	// first mutation checkpoints again, failing if it cannot either.
	_ = s.log.Sync()
	return s, nil
}

// logKey derives the log's GCM key from the master key.
func logKey(masterKey []byte) (crypt.DEK, error) {
	raw := crypt.HKDFSHA256(masterKey, []byte(persistKeyTag), []byte("log"), crypt.KeySize)
	defer crypt.Zeroize(raw)
	return crypt.DEKFromBytes(raw)
}

// seal journals rec, the record of a change the caller has just made under
// s.mu, wipes it, releases s.mu and returns once the change is durable.
func (s *Store) seal(rec []byte) error {
	if s.log != nil {
		s.log.Seal(rec)
	}
	crypt.Zeroize(rec)
	s.rec = rec
	s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Sync()
}

// appendKeyRecord appends e's record: the key, or its tombstone.
func appendKeyRecord(b []byte, id KeyID, e *keyEntry) []byte {
	if e.revoked {
		b = append(b, recTombstone)
	} else {
		b = append(append(b, recKey), e.dek[:]...)
	}
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(e.fetches)), uint64(len(id)))
	return append(append(b, id...), e.creator...)
}

func appendServerRecord(b []byte, server string, enrolled bool) []byte {
	flag := byte(0)
	if enrolled {
		flag = 1
	}
	return append(append(b, recServer, flag), server...)
}

// writeLive emits the live set a checkpoint writes. The log calls it with
// s.mu held.
func (s *Store) writeLive(emit func(rec []byte) error) error {
	rec := s.rec[:0]
	defer func() {
		crypt.Zeroize(rec[:cap(rec)])
		s.rec = rec
	}()
	for srv, enrolled := range s.servers {
		if err := emit(appendServerRecord(rec[:0], srv, enrolled)); err != nil {
			return err
		}
	}
	for id, e := range s.keys {
		rec = appendKeyRecord(rec[:0], id, e)
		if err := emit(rec); err != nil {
			return err
		}
	}
	return nil
}

// apply applies one replayed record (Open runs it before the store is
// shared, so without locks).
func (s *Store) apply(rec []byte) error {
	if len(rec) >= 2 && rec[0] == recServer {
		s.servers[string(rec[2:])] = rec[1] == 1
		return nil
	}
	e := &keyEntry{}
	switch {
	case len(rec) > crypt.KeySize && rec[0] == recKey:
		copy(e.dek[:], rec[1:])
		rec = rec[1+crypt.KeySize:]
	case len(rec) > 0 && rec[0] == recTombstone:
		e.revoked, rec = true, rec[1:]
	default:
		return errUndecodable
	}
	fetches, n := binary.Uvarint(rec)
	idLen, m := binary.Uvarint(rec[max(n, 0):])
	if n <= 0 || m <= 0 || idLen > uint64(len(rec)-n-m) {
		return errUndecodable
	}
	id := rec[n+m : n+m+int(idLen)]
	e.fetches, e.creator = int(fetches), string(rec[n+m+int(idLen):])
	s.keys[KeyID(id)] = e
	return nil
}

// errUndecodable reports an authenticated record this build cannot apply.
var errUndecodable = fmt.Errorf("kds: undecodable state record: %w", vfs.ErrIntegrity)

// v1State is the JSON snapshot of older builds.
type v1State struct {
	Keys map[string]struct {
		DEKHex  string `json:"dek"`
		Creator string `json:"creator"`
		Fetches int    `json:"fetches"`
		Revoked bool   `json:"revoked,omitempty"`
	} `json:"keys"`
	Authorized []string `json:"authorized"`
	RevokedSrv []string `json:"revoked_servers"`
}

// loadV1 fills the store from a snapshot file of older builds.
func (s *Store) loadV1(data, masterKey []byte) error {
	plain, err := crypt.DecodeStateFile(data, v1Magic, 0, func([]byte) (aes crypt.DEK, _ []byte) {
		raw := crypt.HKDFSHA256(masterKey, []byte(persistKeyTag), []byte("aes"), crypt.KeySize)
		defer crypt.Zeroize(raw)
		copy(aes[:], raw)
		return aes, crypt.HKDFSHA256(masterKey, []byte(persistKeyTag), []byte("hmac"), 32)
	})
	if err != nil {
		return err
	}
	// The decrypted snapshot holds every DEK in hex; wipe it once decoded.
	defer crypt.Zeroize(plain)
	var st v1State
	if err := json.Unmarshal(plain, &st); err != nil {
		return fmt.Errorf("%w: payload decode: %v", ErrBadMasterKey, err)
	}
	for id, v := range st.Keys {
		raw, err := hex.DecodeString(v.DEKHex)
		if err != nil {
			return fmt.Errorf("kds: bad key encoding for %s: %w", id, err)
		}
		dek, err := crypt.DEKFromBytes(raw)
		crypt.Zeroize(raw)
		if err != nil {
			return err
		}
		e := &keyEntry{dek: dek, creator: v.Creator, fetches: v.Fetches, revoked: v.Revoked}
		if v.Revoked {
			crypt.Zeroize(e.dek[:])
		}
		s.keys[KeyID(id)] = e
	}
	for _, srv := range st.Authorized {
		s.servers[srv] = true
	}
	for _, srv := range st.RevokedSrv {
		s.servers[srv] = false
	}
	return nil
}
