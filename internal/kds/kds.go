// Package kds implements the Key Distribution Service SHIELD depends on
// (Sections 5.2, 5.4). The paper uses the open-source Secure Swarm Toolkit;
// this package reproduces the properties SHIELD requires of a KDS:
//
//  1. decentralized operation for high availability (several servers can
//     front one replicated key store, and clients fail over between them);
//  2. DEKs are provisioned with a unique identifier (KeyID) that SHIELD
//     embeds in file metadata;
//  3. server authorization — only enrolled servers may create or fetch DEKs,
//     and a breached server can be revoked;
//  4. one-time DEK provisioning — a DEK-ID that has already been fetched is
//     denied to later requesters, so a leaked plaintext DEK-ID alone does
//     not yield the key.
//
// The paper measures SSToolkit at ~2750 µs per issued DEK; Service
// implementations take a configurable synthetic latency to reproduce the
// KDS-latency sensitivity experiment (Figure 16).
package kds

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"shield/internal/crypt"
)

// KeyID uniquely identifies a DEK. KeyIDs are stored in plaintext file
// metadata; possession of a KeyID is deliberately worthless without KDS
// authorization.
type KeyID string

// Errors returned by Service implementations.
var (
	ErrUnauthorized   = errors.New("kds: server not authorized")
	ErrUnknownKey     = errors.New("kds: unknown DEK-ID")
	ErrAlreadyIssued  = errors.New("kds: DEK already provisioned (one-time provisioning)")
	ErrRevoked        = errors.New("kds: server authorization revoked")
	ErrKeyRevoked     = errors.New("kds: DEK revoked")
	ErrNoReplica      = errors.New("kds: no replica reachable")
	ErrClosed         = errors.New("kds: service closed")
	ErrPolicyViolated = errors.New("kds: request denied by policy")
)

// Service is the client-side interface SHIELD programs against. A Service
// value is bound to one requesting server identity; the KDS authenticates
// and authorizes that identity on every call.
type Service interface {
	// CreateDEK mints a fresh DEK and returns its KeyID. The creator
	// implicitly holds the DEK; creation does not consume the one-time
	// fetch budget.
	CreateDEK() (KeyID, crypt.DEK, error)

	// FetchDEK resolves a KeyID, subject to authorization and the
	// one-time-provisioning policy.
	FetchDEK(id KeyID) (crypt.DEK, error)

	// RevokeDEK removes a DEK, e.g. after its file is deleted or its key is
	// compromised and rotated.
	RevokeDEK(id KeyID) error
}

// Policy configures a Store's provisioning rules.
type Policy struct {
	// MaxFetches bounds how many FetchDEK calls may succeed per KeyID
	// (creation excluded). 1 reproduces the paper's one-time provisioning;
	// 0 means unlimited.
	MaxFetches int

	// Latency is the synthetic per-request service time (key generation,
	// authentication, authorization), mimicking SSToolkit's ~2750 µs.
	Latency time.Duration
}

// DefaultPolicy matches the paper's deployment: one-time provisioning with
// no added latency (benchmarks opt into latency explicitly).
func DefaultPolicy() Policy { return Policy{MaxFetches: 1} }

type keyEntry struct {
	dek     crypt.DEK // zero once revoked: a revoked key is a tombstone
	creator string
	fetches int
	revoked bool
}

// Store is the replicated key database behind one or more KDS front ends.
// Multiple Servers (or in-process Locals) sharing one *Store model a
// decentralized KDS deployment: any replica can serve any request. Every
// key operation names the requesting server and is refused unless that
// server is enrolled and not revoked. Opened with OpenPersistentStore, a
// Store journals every change before the call returns (persist.go).
type Store struct {
	mu      sync.Mutex
	policy  Policy
	keys    map[KeyID]*keyEntry
	servers map[string]bool // serverID -> enrolled (true) or revoked (false)
	fetched int64
	denied  int64

	log *crypt.StateLog // nil: in memory only
	rec []byte          // plaintext of the record being sealed; wiped after

	// Idempotency-token window for CreateDEKToken: token -> issued KeyID,
	// bounded FIFO so a retry storm cannot grow the store.
	tokens     map[string]KeyID
	tokenOrder []string
}

// tokenWindow bounds how many recent create tokens are remembered. Retries
// arrive within a request's backoff budget (milliseconds to seconds), so a
// small window is ample.
const tokenWindow = 1024

// NewStore creates an empty key store with the given policy.
func NewStore(policy Policy) *Store {
	return &Store{policy: policy, keys: make(map[KeyID]*keyEntry), servers: make(map[string]bool)}
}

// Authorize enrolls a server so it may create and fetch DEKs. Persisting
// the enrollment is best effort: one that fails to persist is still live in
// memory, and deployments enroll their servers at every start.
func (s *Store) Authorize(serverID string) {
	_ = s.setServer(serverID, true)
}

// RevokeServer blocks all further requests from a breached server. The
// error reports a revocation that may not survive a restart.
//
//shield:notestonly the breach response (Section 5.4); no command drives it, the KDS tests and the crash enumeration do
func (s *Store) RevokeServer(serverID string) error {
	return s.setServer(serverID, false)
}

// setServer enrolls or revokes serverID and returns once that is durable.
func (s *Store) setServer(serverID string, enrolled bool) error {
	s.mu.Lock()
	if was, known := s.servers[serverID]; known && was == enrolled {
		s.mu.Unlock()
		return nil
	}
	s.servers[serverID] = enrolled
	return s.seal(appendServerRecord(s.rec[:0], serverID, enrolled))
}

func (s *Store) checkServer(serverID string) error {
	switch enrolled, known := s.servers[serverID]; {
	case known && !enrolled:
		return fmt.Errorf("%w: %s", ErrRevoked, serverID)
	case !enrolled:
		return fmt.Errorf("%w: %s", ErrUnauthorized, serverID)
	}
	return nil
}

// latency returns the configured synthetic latency without holding the lock
// during the sleep.
func (s *Store) latency() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy.Latency
}

// CreateDEK implements the Service semantics at the store level.
func (s *Store) CreateDEK(serverID string) (KeyID, crypt.DEK, error) {
	if d := s.latency(); d > 0 {
		time.Sleep(d)
	}
	dek, err := crypt.NewDEK()
	if err != nil {
		return "", crypt.DEK{}, err
	}
	var raw [12]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", crypt.DEK{}, fmt.Errorf("kds: generating key id: %w", err)
	}
	id := KeyID("dek-" + hex.EncodeToString(raw[:]))

	s.mu.Lock()
	if err := s.checkServer(serverID); err != nil {
		s.denied++
		s.mu.Unlock()
		return "", crypt.DEK{}, err
	}
	e := &keyEntry{dek: dek, creator: serverID}
	s.keys[id] = e
	if err := s.seal(appendKeyRecord(s.rec[:0], id, e)); err != nil {
		return "", crypt.DEK{}, fmt.Errorf("kds: persisting after issue: %w", err)
	}
	return id, dek, nil
}

// CreateDEKToken creates idempotently: a replayed token returns the key
// already issued for it, so a client retrying a create whose response was
// lost does not double-issue a DEK. An empty token is a plain CreateDEK.
// The replay passes the same checks as a fresh create, and goes only to the
// server that created the key, while the key is not revoked. The
// check-then-create sequence is not atomic across concurrent calls with the
// same token, but tokens are minted per request by a single client whose
// retries are serialized.
func (s *Store) CreateDEKToken(serverID, token string) (KeyID, crypt.DEK, error) {
	if token == "" {
		return s.CreateDEK(serverID)
	}
	s.mu.Lock()
	if id, ok := s.tokens[token]; ok {
		if e, live := s.keys[id]; live {
			defer s.mu.Unlock()
			if err := s.checkReplay(serverID, id, e); err != nil {
				s.denied++
				return "", crypt.DEK{}, err
			}
			return id, e.dek, nil
		}
	}
	s.mu.Unlock()
	id, dek, err := s.CreateDEK(serverID)
	if err != nil {
		return id, dek, err
	}
	s.mu.Lock()
	if s.tokens == nil {
		s.tokens = make(map[string]KeyID)
	}
	s.tokens[token] = id
	s.tokenOrder = append(s.tokenOrder, token)
	for len(s.tokenOrder) > tokenWindow {
		delete(s.tokens, s.tokenOrder[0])
		s.tokenOrder = s.tokenOrder[1:]
	}
	s.mu.Unlock()
	return id, dek, nil
}

// checkReplay authorizes serverID to receive the key a replayed create token
// names. The caller holds s.mu.
func (s *Store) checkReplay(serverID string, id KeyID, e *keyEntry) error {
	if err := s.checkServer(serverID); err != nil {
		return err
	}
	if serverID != e.creator {
		return fmt.Errorf("%w: create token of another server", ErrPolicyViolated)
	}
	if e.revoked {
		return fmt.Errorf("%w: %s", ErrKeyRevoked, id)
	}
	return nil
}

// FetchDEK implements the Service semantics at the store level.
func (s *Store) FetchDEK(serverID string, id KeyID) (crypt.DEK, error) {
	if d := s.latency(); d > 0 {
		time.Sleep(d)
	}
	s.mu.Lock()
	e, err := s.fetchable(serverID, id)
	if err != nil {
		s.denied++
		s.mu.Unlock()
		return crypt.DEK{}, err
	}
	s.fetched++
	dek := e.dek
	// The creator re-fetching its own key (e.g. on restart with a cold
	// secure cache) does not consume the one-time budget; foreign servers do.
	if serverID == e.creator {
		s.mu.Unlock()
		return dek, nil
	}
	e.fetches++
	if err := s.seal(appendKeyRecord(s.rec[:0], id, e)); err != nil {
		return crypt.DEK{}, fmt.Errorf("kds: persisting after fetch: %w", err)
	}
	return dek, nil
}

// fetchable returns the entry of id if serverID may fetch it. The caller
// holds s.mu.
func (s *Store) fetchable(serverID string, id KeyID) (*keyEntry, error) {
	if err := s.checkServer(serverID); err != nil {
		return nil, err
	}
	switch e, ok := s.keys[id]; {
	case !ok:
		return nil, fmt.Errorf("%w: %s", ErrUnknownKey, id)
	case e.revoked:
		return nil, fmt.Errorf("%w: %s", ErrKeyRevoked, id)
	case serverID != e.creator && s.policy.MaxFetches > 0 && e.fetches >= s.policy.MaxFetches:
		return nil, fmt.Errorf("%w: %s", ErrAlreadyIssued, id)
	default:
		return e, nil
	}
}

// RevokeDEK implements the Service semantics at the store level. Any enrolled
// server may revoke any key: the engine revokes the outputs of offloaded
// compactions, which a worker's identity created. The key's bytes are wiped;
// its ID, creator and fetch count stay as a tombstone, so the ID is refused
// for good.
func (s *Store) RevokeDEK(serverID string, id KeyID) error {
	s.mu.Lock()
	if err := s.checkServer(serverID); err != nil {
		s.denied++
		s.mu.Unlock()
		return err
	}
	e, ok := s.keys[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownKey, id)
	}
	if e.revoked {
		s.mu.Unlock()
		return nil
	}
	e.revoked = true
	crypt.Zeroize(e.dek[:]) // so no later checkpoint writes it
	return s.seal(appendKeyRecord(s.rec[:0], id, e))
}

// Stats reports request counts: issued counts the keys the store holds
// (revoked ones included), fetched and denied the requests since the
// process started.
func (s *Store) Stats() (issued, fetched, denied int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.keys)), s.fetched, s.denied
}

// Local is an in-process Service bound to one serverID, used for monolithic
// deployments and tests.
type Local struct {
	store    *Store
	serverID string
}

// NewLocal returns a Service for serverID backed by store. The server is
// authorized as a side effect (monolithic deployments control enrollment
// out of band).
func NewLocal(store *Store, serverID string) *Local {
	store.Authorize(serverID)
	return &Local{store: store, serverID: serverID}
}

// CreateDEK implements Service.
func (l *Local) CreateDEK() (KeyID, crypt.DEK, error) {
	return l.store.CreateDEK(l.serverID)
}

// FetchDEK implements Service.
func (l *Local) FetchDEK(id KeyID) (crypt.DEK, error) {
	return l.store.FetchDEK(l.serverID, id)
}

// RevokeDEK implements Service.
func (l *Local) RevokeDEK(id KeyID) error { return l.store.RevokeDEK(l.serverID, id) }
