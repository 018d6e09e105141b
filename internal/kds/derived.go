package kds

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"

	"shield/internal/crypt"
)

// Derived is a stateless KDS implementing the hierarchical-derivation
// policy the paper lists alongside per-server sharing and per-file
// isolation (Section 5.4): every DEK is derived from a master secret and
// the DEK-ID via HKDF-SHA256, so the service stores no keys at all — any
// replica holding the master secret can resolve any DEK-ID.
//
// Trade-off vs the stateful Store: derivation cannot enforce one-time
// provisioning or per-key revocation (a DEK is recomputable forever from
// the master), so the blast radius of a *master* compromise is the whole
// store. In exchange the KDS needs no persistent state and scales without
// replication traffic. Server authorization and revocation still apply.
type Derived struct {
	master []byte

	mu         sync.Mutex
	authorized map[string]bool
	revokedSrv map[string]bool
	revokedKey map[KeyID]bool
}

// NewDerived creates a derivation-based KDS from a master secret.
func NewDerived(master []byte) *Derived {
	return &Derived{
		master:     append([]byte(nil), master...),
		authorized: make(map[string]bool),
		revokedSrv: make(map[string]bool),
		revokedKey: make(map[KeyID]bool),
	}
}

// Authorize enrolls a server.
func (d *Derived) Authorize(serverID string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.authorized[serverID] = true
	delete(d.revokedSrv, serverID)
}

// RevokeServer blocks a server.
func (d *Derived) RevokeServer(serverID string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.revokedSrv[serverID] = true
	delete(d.authorized, serverID)
}

func (d *Derived) check(serverID string) error {
	d.mu.Lock()
	revoked := d.revokedSrv[serverID]
	ok := d.authorized[serverID]
	d.mu.Unlock()
	if revoked {
		return fmt.Errorf("%w: %s", ErrRevoked, serverID)
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnauthorized, serverID)
	}
	return nil
}

// derive computes the DEK for an ID.
func (d *Derived) derive(id KeyID) (crypt.DEK, error) {
	raw := crypt.HKDFSHA256(d.master, []byte("shield-kds-derived-v1"), []byte(id), crypt.KeySize)
	defer crypt.Zeroize(raw)
	return crypt.DEKFromBytes(raw)
}

// CreateDEK mints a fresh DEK-ID for serverID and derives its key.
func (d *Derived) CreateDEK(serverID string) (KeyID, crypt.DEK, error) {
	if err := d.check(serverID); err != nil {
		return "", crypt.DEK{}, err
	}
	var buf [12]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", crypt.DEK{}, fmt.Errorf("kds: generating key id: %w", err)
	}
	id := KeyID("dekh-" + hex.EncodeToString(buf[:]))
	dek, err := d.derive(id)
	return id, dek, err
}

// CreateDEKToken implements Backend. Derivation makes this cheap:
// the DEK-ID is itself derived from the token, so any replica holding the
// master resolves a replayed token to the same ID and key without shared
// state — the dedup survives even a replica restart.
func (d *Derived) CreateDEKToken(serverID, token string) (KeyID, crypt.DEK, error) {
	if token == "" {
		return d.CreateDEK(serverID)
	}
	if err := d.check(serverID); err != nil {
		return "", crypt.DEK{}, err
	}
	raw := crypt.HKDFSHA256(d.master, []byte("shield-kds-derived-id-v1"), []byte(token), 12)
	defer crypt.Zeroize(raw)
	id := KeyID("dekh-" + hex.EncodeToString(raw))
	dek, err := d.derive(id)
	return id, dek, err
}

// FetchDEK re-derives the key for id.
func (d *Derived) FetchDEK(serverID string, id KeyID) (crypt.DEK, error) {
	if err := d.check(serverID); err != nil {
		return crypt.DEK{}, err
	}
	d.mu.Lock()
	dead := d.revokedKey[id]
	d.mu.Unlock()
	if dead {
		return crypt.DEK{}, fmt.Errorf("%w: %s", ErrKeyRevoked, id)
	}
	return d.derive(id)
}

// RevokeDEK blocklists an ID (derivation itself cannot be undone, but this
// service will no longer answer for it).
func (d *Derived) RevokeDEK(id KeyID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.revokedKey[id] = true
	return nil
}

// DerivedLocal binds a Derived KDS to one server identity, implementing
// Service.
type DerivedLocal struct {
	d        *Derived
	serverID string
}

// NewDerivedLocal returns a Service for serverID over d, authorizing it.
func NewDerivedLocal(d *Derived, serverID string) *DerivedLocal {
	d.Authorize(serverID)
	return &DerivedLocal{d: d, serverID: serverID}
}

// CreateDEK implements Service.
func (l *DerivedLocal) CreateDEK() (KeyID, crypt.DEK, error) {
	return l.d.CreateDEK(l.serverID)
}

// FetchDEK implements Service.
func (l *DerivedLocal) FetchDEK(id KeyID) (crypt.DEK, error) {
	return l.d.FetchDEK(l.serverID, id)
}

// RevokeDEK implements Service.
func (l *DerivedLocal) RevokeDEK(id KeyID) error { return l.d.RevokeDEK(id) }
