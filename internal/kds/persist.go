package kds

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"

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
// On-disk layout mirrors the secure cache:
//
//	magic(4) version(4) iv(16) len(4) ciphertext hmac(32)
//
// with AES-128-CTR under the master key and an HMAC-SHA256 tag (key =
// HKDF(master, "kds-hmac")) over everything before it.

const (
	persistMagic   = 0x4b445350 // "KDSP"
	persistVersion = 1
	persistTagLen  = 32
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
	fs      vfs.FS
	path    string
	aesKey  crypt.DEK
	hmacKey []byte

	// saveMu serialises Save. The snapshot is taken inside it, so snapshots
	// reach disk in the order in which they observed the store: an older one
	// can never land over a newer one and lose a DEK that already protects a
	// file. Nothing but Save takes it, and it is never held with Store.mu.
	saveMu  sync.Mutex
	saveSeq uint64 // guarded by saveMu; names each save's own temp file
}

// OpenPersistentStore loads (or initializes) a store snapshot at path,
// sealed with masterKey. Mutating operations snapshot the store afterwards;
// key issue/fetch volumes are low (one per file creation), so the
// write-behind simplicity costs little.
func OpenPersistentStore(fs vfs.FS, file string, masterKey []byte, policy Policy) (*PersistentStore, error) {
	ps := &PersistentStore{Store: NewStore(policy), fs: fs, path: file}
	aesRaw := crypt.HKDFSHA256(masterKey, []byte("kds-persist-v1"), []byte("aes"), crypt.KeySize)
	defer crypt.Zeroize(aesRaw)
	var err error
	ps.aesKey, err = crypt.DEKFromBytes(aesRaw)
	if err != nil {
		return nil, err
	}
	ps.hmacKey = crypt.HKDFSHA256(masterKey, []byte("kds-persist-v1"), []byte("hmac"), persistTagLen)

	// A leftover temp file means a save crashed before its rename; the live
	// snapshot (if any) is intact, the partial file is garbage.
	infos, err := fs.List(path.Dir(file))
	if err != nil && !errors.Is(err, vfs.ErrNotFound) {
		return nil, err
	}
	for _, fi := range infos {
		if strings.HasPrefix(fi.Name, path.Base(file)+".") && strings.HasSuffix(fi.Name, ".tmp") {
			if err := fs.Remove(path.Join(path.Dir(file), fi.Name)); err != nil {
				return nil, err
			}
		}
	}
	data, err := vfs.ReadFile(fs, file)
	switch {
	case errors.Is(err, vfs.ErrNotFound):
		return ps, nil
	case err != nil:
		return nil, err
	}
	if err := ps.load(data); err != nil {
		return nil, err
	}
	return ps, nil
}

func (ps *PersistentStore) load(data []byte) error {
	const hdrLen = 4 + 4 + crypt.IVSize + 4
	if len(data) < hdrLen+persistTagLen {
		return fmt.Errorf("%w: truncated", ErrBadMasterKey)
	}
	if binary.LittleEndian.Uint32(data[0:4]) != persistMagic {
		return fmt.Errorf("%w: bad magic", ErrBadMasterKey)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != persistVersion {
		return fmt.Errorf("kds: unsupported snapshot version %d", v)
	}
	var iv [crypt.IVSize]byte
	copy(iv[:], data[8:8+crypt.IVSize])
	n := binary.LittleEndian.Uint32(data[8+crypt.IVSize : hdrLen])
	if int(n) != len(data)-hdrLen-persistTagLen {
		return fmt.Errorf("%w: length mismatch", ErrBadMasterKey)
	}
	body := data[hdrLen : hdrLen+int(n)]
	tag := data[hdrLen+int(n):]
	if !crypt.VerifyHMACSHA256(ps.hmacKey, data[:hdrLen+int(n)], tag) {
		return ErrBadMasterKey
	}
	plain := make([]byte, len(body))
	if err := crypt.EncryptAt(ps.aesKey, iv, plain, body, 0); err != nil {
		return err
	}
	// The decrypted snapshot holds every DEK in hex; wipe it once decoded.
	defer crypt.Zeroize(plain)
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

// Save snapshots the store to disk (write-then-rename), one save at a time.
// Issuers that race here queue up; each one's snapshot includes its own
// mutation, since that happened before it called Save.
func (ps *PersistentStore) Save() error {
	ps.saveMu.Lock()
	defer ps.saveMu.Unlock()
	ps.saveSeq++
	return ps.writeSnapshot(fmt.Sprintf("%s.%d.tmp", ps.path, ps.saveSeq))
}

// writeSnapshot seals the store's current state into tmp and renames it
// over the live snapshot. Save calls it with saveMu held.
func (ps *PersistentStore) writeSnapshot(tmp string) (err error) {
	defer func() {
		if err != nil {
			ps.fs.Remove(tmp) //nolint:errcheck // best effort; the next open sweeps what is left
		}
	}()
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

	plain, err := json.Marshal(&st)
	if err != nil {
		return err
	}
	// The marshaled snapshot holds every DEK in hex; wipe it once encrypted.
	defer crypt.Zeroize(plain)
	iv, err := crypt.NewIV()
	if err != nil {
		return err
	}
	body := make([]byte, len(plain))
	if err := crypt.EncryptAt(ps.aesKey, iv, body, plain, 0); err != nil {
		return err
	}
	const hdrLen = 4 + 4 + crypt.IVSize + 4
	out := make([]byte, hdrLen, hdrLen+len(body)+persistTagLen)
	binary.LittleEndian.PutUint32(out[0:4], persistMagic)
	binary.LittleEndian.PutUint32(out[4:8], persistVersion)
	copy(out[8:8+crypt.IVSize], iv[:])
	binary.LittleEndian.PutUint32(out[8+crypt.IVSize:hdrLen], uint32(len(body)))
	out = append(out, body...)
	out = append(out, crypt.HMACSHA256(ps.hmacKey, out)...)

	if err := vfs.WriteFile(ps.fs, tmp, out); err != nil {
		return err
	}
	if err := ps.fs.Rename(tmp, ps.path); err != nil {
		return err
	}
	// The rename is not durable until the parent directory is synced: a
	// crash here could resurrect the previous snapshot — or, on a fresh
	// store, no snapshot at all — losing issued keys the caller already
	// acted on.
	return ps.fs.SyncDir(path.Dir(ps.path))
}

// Authorize enrolls a server and persists the snapshot (best effort: an
// enrollment that fails to persist is still live in memory).
func (ps *PersistentStore) Authorize(serverID string) {
	ps.Store.Authorize(serverID)
	ps.Save() //nolint:errcheck
}

// RevokeServer blocks a server and persists the snapshot.
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
func (ps *PersistentStore) RevokeDEK(id KeyID) error {
	if err := ps.Store.RevokeDEK(id); err != nil {
		return err
	}
	return ps.Save()
}
