package kds

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"shield/internal/crypt"
	"shield/internal/vfs"
)

// KDS persistence: without it, a KDS restart would lose every issued DEK
// that is not mirrored in some secure cache — i.e. permanent data loss for
// the databases depending on it. PersistentStore wraps Store with an
// encrypted snapshot file: the key database is sealed under a master key
// (the KDS's own root secret, which a deployment guards with an HSM or
// operator passphrase; here it is supplied by the caller).
//
// On disk the snapshot is a crypt.StateFile with no extra header bytes:
//
//	magic(4) version(4) iv(16) len(4) ciphertext hmac(32)
//
// with AES-128-CTR under a key derived from the master key and an
// HMAC-SHA256 tag (key = HKDF(master, "hmac")) over everything before it.

const (
	persistMagic      = 0x4b445350 // "KDSP"
	persistHMACKeyLen = 32
)

// ErrBadMasterKey reports that a snapshot cannot be authenticated.
var ErrBadMasterKey = errors.New("kds: master key mismatch or corrupted snapshot")

// persistedEntry is one key record in the snapshot.
type persistedEntry struct {
	DEKHex  string `json:"dek"`
	Creator string `json:"creator"`
	Fetches int    `json:"fetches"`
	Revoked bool   `json:"revoked,omitempty"`
}

type persistedState struct {
	Keys       map[string]persistedEntry `json:"keys"`
	Authorized []string                  `json:"authorized"`
	RevokedSrv []string                  `json:"revoked_servers"`
	Issued     int64                     `json:"issued"`
	Fetched    int64                     `json:"fetched"`
	Denied     int64                     `json:"denied"`
}

// PersistentStore is a Store whose state survives restarts.
type PersistentStore struct {
	*Store
	// state serialises Save and takes each snapshot inside the save's turn,
	// so snapshots reach disk in the order in which they observed the store:
	// an older one can never land over a newer one and lose a DEK that
	// already protects a file. It is never held with Store.mu.
	state crypt.StateFile
}

// OpenPersistentStore loads (or initializes) a store snapshot at path,
// sealed with masterKey. Mutating operations snapshot the store afterwards;
// key issue/fetch volumes are low (one per file creation), so the
// write-behind simplicity costs little.
func OpenPersistentStore(fs vfs.FS, file string, masterKey []byte, policy Policy) (*PersistentStore, error) {
	ps := &PersistentStore{
		Store: NewStore(policy),
		state: crypt.StateFile{FS: fs, Path: file, Magic: persistMagic},
	}
	aesRaw := crypt.HKDFSHA256(masterKey, []byte("kds-persist-v1"), []byte("aes"), crypt.KeySize)
	defer crypt.Zeroize(aesRaw)
	var err error
	ps.state.AES, err = crypt.DEKFromBytes(aesRaw)
	if err != nil {
		return nil, err
	}
	ps.state.HMAC = crypt.HKDFSHA256(masterKey, []byte("kds-persist-v1"), []byte("hmac"), persistHMACKeyLen)

	plain, err := ps.state.Load(0, nil)
	switch {
	case errors.Is(err, vfs.ErrNotFound):
		return ps, nil
	case errors.Is(err, crypt.ErrStateCorrupt), errors.Is(err, crypt.ErrStateAuth):
		// Unlike the secure cache, this file is the only copy of the keys:
		// damage of either kind fails closed.
		return nil, fmt.Errorf("%w: %v", ErrBadMasterKey, err)
	case err != nil:
		return nil, err
	}
	// The decrypted snapshot holds every DEK in hex; wipe it once decoded.
	defer crypt.Zeroize(plain)
	if err := ps.decode(plain); err != nil {
		return nil, err
	}
	return ps, nil
}

// decode fills the store from an unsealed snapshot.
func (ps *PersistentStore) decode(plain []byte) error {
	var st persistedState
	if err := json.Unmarshal(plain, &st); err != nil {
		return fmt.Errorf("%w: payload decode: %v", ErrBadMasterKey, err)
	}

	s := ps.Store
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, e := range st.Keys {
		raw, err := hex.DecodeString(e.DEKHex)
		if err != nil {
			return fmt.Errorf("kds: bad key encoding for %s: %w", id, err)
		}
		dek, err := crypt.DEKFromBytes(raw)
		crypt.Zeroize(raw)
		if err != nil {
			return err
		}
		s.keys[KeyID(id)] = &keyEntry{
			dek:     dek,
			creator: e.Creator,
			fetches: e.Fetches,
			revoked: e.Revoked,
		}
	}
	for _, srv := range st.Authorized {
		s.authorized[srv] = true
	}
	for _, srv := range st.RevokedSrv {
		s.revokedSrv[srv] = true
	}
	s.issued, s.fetched, s.denied = st.Issued, st.Fetched, st.Denied
	return nil
}

// Save snapshots the store to disk, one save at a time. Issuers that race
// here queue up; each one's snapshot includes its own mutation, since that
// happened before it called Save.
func (ps *PersistentStore) Save() error {
	return ps.state.Save(ps.snapshot)
}

// snapshot serializes the store's current state; the state file seals and
// wipes the result.
func (ps *PersistentStore) snapshot() ([]byte, error) {
	s := ps.Store
	s.mu.Lock()
	st := persistedState{
		Keys:   make(map[string]persistedEntry, len(s.keys)),
		Issued: s.issued, Fetched: s.fetched, Denied: s.denied,
	}
	for id, e := range s.keys {
		st.Keys[string(id)] = persistedEntry{
			DEKHex:  hex.EncodeToString(e.dek[:]), //shield:nokeyhygiene snapshot is AES-CTR encrypted and HMAC-tagged before it reaches disk
			Creator: e.creator,
			Fetches: e.fetches,
			Revoked: e.revoked,
		}
	}
	for srv := range s.authorized {
		st.Authorized = append(st.Authorized, srv)
	}
	for srv := range s.revokedSrv {
		st.RevokedSrv = append(st.RevokedSrv, srv)
	}
	s.mu.Unlock()
	return json.Marshal(&st)
}

// Authorize enrolls a server and persists the snapshot (best effort: an
// enrollment that fails to persist is still live in memory).
func (ps *PersistentStore) Authorize(serverID string) {
	ps.Store.Authorize(serverID)
	ps.Save() //nolint:errcheck
}

// RevokeServer blocks a server and persists the snapshot.
//
//shield:notestonly shadows the embedded Store.RevokeServer so that a revocation is written to disk
func (ps *PersistentStore) RevokeServer(serverID string) {
	ps.Store.RevokeServer(serverID)
	ps.Save() //nolint:errcheck
}

// CreateDEK issues a key and persists the snapshot.
func (ps *PersistentStore) CreateDEK(serverID string) (KeyID, crypt.DEK, error) {
	id, dek, err := ps.Store.CreateDEK(serverID)
	if err != nil {
		return id, dek, err
	}
	if err := ps.Save(); err != nil {
		return "", crypt.DEK{}, fmt.Errorf("kds: persisting after issue: %w", err)
	}
	return id, dek, nil
}

// CreateDEKToken issues a key idempotently and persists the snapshot.
// The token window itself is not persisted: a KDS restart forgets recent
// tokens, so a retry that straddles the restart mints a fresh key — a
// bounded leak, never a lost one.
func (ps *PersistentStore) CreateDEKToken(serverID, token string) (KeyID, crypt.DEK, error) {
	id, dek, err := ps.Store.CreateDEKToken(serverID, token)
	if err != nil {
		return id, dek, err
	}
	if err := ps.Save(); err != nil {
		return "", crypt.DEK{}, fmt.Errorf("kds: persisting after issue: %w", err)
	}
	return id, dek, nil
}

// FetchDEK resolves a key and persists the snapshot (fetch budgets are
// state too — one-time provisioning must survive a KDS restart).
func (ps *PersistentStore) FetchDEK(serverID string, id KeyID) (crypt.DEK, error) {
	dek, err := ps.Store.FetchDEK(serverID, id)
	if err != nil {
		return dek, err
	}
	if err := ps.Save(); err != nil {
		return crypt.DEK{}, fmt.Errorf("kds: persisting after fetch: %w", err)
	}
	return dek, nil
}

// RevokeDEK revokes a key and persists the snapshot.
func (ps *PersistentStore) RevokeDEK(serverID string, id KeyID) error {
	if err := ps.Store.RevokeDEK(serverID, id); err != nil {
		return err
	}
	return ps.Save()
}
