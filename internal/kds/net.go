package kds

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"shield/internal/crypt"
	"shield/internal/netretry"
)

// The wire protocol is newline-delimited JSON over TCP. Each request carries
// the caller's server identity; a production deployment would authenticate
// it (mutual TLS, Kerberos tickets, SSToolkit session keys) — the threat
// model assumes the security infrastructure itself is sound (Section 3.1),
// so identity is taken at face value here and enforcement happens in the
// Store's authorization tables.

type wireRequest struct {
	Op       string `json:"op"` // "create" | "fetch" | "revoke"
	ServerID string `json:"server_id"`
	KeyID    string `json:"key_id,omitempty"`

	// Token makes "create" idempotent: a retried create with the same
	// token resolves to the key already issued for it (Store.CreateDEKToken).
	Token string `json:"token,omitempty"`
}

// maxMessage caps one wire message in either direction. Real ones stay under
// 1 KiB (IDs, a hex DEK, an error string).
const maxMessage = 64 << 10

type wireResponse struct {
	OK     bool   `json:"ok"`
	Err    string `json:"err,omitempty"`
	KeyID  string `json:"key_id,omitempty"`
	DEKHex string `json:"dek_hex,omitempty"`
}

// Server exposes a Store over TCP. Several Servers may front the same Store,
// modeling the decentralized replica set.
type Server struct {
	store *Store
	ln    *netretry.Listener
}

// NewServer starts a KDS server on addr (e.g. "127.0.0.1:0") backed by store.
func NewServer(store *Store, addr string) (*Server, error) {
	s := &Server{store: store}
	ln, err := netretry.Listen(addr, s.serveConn)
	if err != nil {
		return nil, fmt.Errorf("kds: listen: %w", err)
	}
	s.ln = ln
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr() }

// Close stops the server and disconnects all clients.
func (s *Server) Close() error { return s.ln.Close() }

func (s *Server) serveConn(conn net.Conn) {
	wire := netretry.NewJSONConn(conn, maxMessage)
	for {
		var req wireRequest
		if err := wire.Recv(&req); err != nil {
			return
		}
		resp := s.handle(req)
		if err := wire.Send(&resp); err != nil {
			return
		}
	}
}

func (s *Server) handle(req wireRequest) wireResponse {
	switch req.Op {
	case "create":
		var (
			id  KeyID
			dek crypt.DEK
			err error
		)
		if req.Token != "" {
			id, dek, err = s.store.CreateDEKToken(req.ServerID, req.Token)
		} else {
			id, dek, err = s.store.CreateDEK(req.ServerID)
		}
		if err != nil {
			return wireResponse{Err: err.Error()}
		}
		return wireResponse{OK: true, KeyID: string(id), DEKHex: hex.EncodeToString(dek[:])} //shield:nokeyhygiene threat model (Section 3.1) assumes the KDS channel is secured by infrastructure
	case "fetch":
		dek, err := s.store.FetchDEK(req.ServerID, KeyID(req.KeyID))
		if err != nil {
			return wireResponse{Err: err.Error()}
		}
		return wireResponse{OK: true, KeyID: req.KeyID, DEKHex: hex.EncodeToString(dek[:])} //shield:nokeyhygiene threat model (Section 3.1) assumes the KDS channel is secured by infrastructure
	case "revoke":
		if err := s.store.RevokeDEK(req.ServerID, KeyID(req.KeyID)); err != nil {
			return wireResponse{Err: err.Error()}
		}
		return wireResponse{OK: true}
	default:
		return wireResponse{Err: fmt.Sprintf("kds: unknown op %q", req.Op)}
	}
}

// ClientConfig tunes the client's fault-tolerance behavior. The zero value
// selects the defaults: dial 1s, request 2s, backoff 5ms to 250ms, and 4
// attempts.
type ClientConfig struct {
	netretry.Policy

	// MaxAttempts is the total number of transport attempts per request,
	// across replicas.
	MaxAttempts int
}

// Client is a Service that talks to one or more KDS replicas over TCP
// through a netretry.Client: every request carries a deadline and fails over
// between replicas with jittered exponential backoff. Every request is
// idempotent (fetch and revoke by nature, create by the token it carries),
// so all of them are retried across replicas. It is safe for concurrent
// use; requests are serialized over one connection.
type Client struct {
	serverID string
	rt       *netretry.Client
}

// NewClient returns a Service identifying as serverID against the given
// replica addresses, with default fault-tolerance settings.
func NewClient(serverID string, addrs ...string) *Client {
	return NewClientConfig(serverID, ClientConfig{}, addrs...)
}

// NewClientConfig is NewClient with explicit retry/timeout settings.
func NewClientConfig(serverID string, cfg ClientConfig, addrs ...string) *Client {
	p := cfg.Policy.WithDefaults(netretry.Policy{
		DialTimeout:    time.Second,
		RequestTimeout: 2 * time.Second,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     250 * time.Millisecond,
	})
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	return &Client{serverID: serverID, rt: netretry.NewClient(p, cfg.MaxAttempts, maxMessage, addrs...)}
}

// Close releases the client connection and unblocks in-flight requests.
func (c *Client) Close() error { return c.rt.Close() }

// roundTrip sends one request, re-sending it across replicas on transport
// errors.
func (c *Client) roundTrip(req wireRequest) (wireResponse, error) {
	req.ServerID = c.serverID
	var resp wireResponse
	switch err := c.rt.Call(&req, &resp); {
	case errors.Is(err, netretry.ErrClosed):
		return resp, ErrClosed
	case err != nil:
		return resp, fmt.Errorf("%w: %v", ErrNoReplica, err)
	}
	return resp, nil
}

// newCreateToken mints a random idempotency token for one create request.
func newCreateToken() (string, error) {
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("kds: generating create token: %w", err)
	}
	return hex.EncodeToString(raw[:]), nil
}

// mapWireError converts a server-side error string back to the package's
// sentinel errors so errors.Is works across the network boundary.
func mapWireError(msg string) error {
	for _, sentinel := range []error{
		ErrUnauthorized, ErrUnknownKey, ErrAlreadyIssued, ErrRevoked, ErrKeyRevoked,
		ErrPolicyViolated,
	} {
		if strings.Contains(msg, sentinel.Error()) {
			return fmt.Errorf("%w (remote: %s)", sentinel, msg)
		}
	}
	return errors.New(msg)
}

// CreateDEK implements Service. The request carries an idempotency token so
// transport-level retries cannot double-issue a DEK.
func (c *Client) CreateDEK() (KeyID, crypt.DEK, error) {
	token, err := newCreateToken()
	if err != nil {
		return "", crypt.DEK{}, err
	}
	resp, err := c.roundTrip(wireRequest{Op: "create", Token: token})
	if err != nil {
		return "", crypt.DEK{}, err
	}
	if !resp.OK {
		return "", crypt.DEK{}, mapWireError(resp.Err)
	}
	raw, err := hex.DecodeString(resp.DEKHex)
	if err != nil {
		return "", crypt.DEK{}, fmt.Errorf("kds: bad DEK encoding: %w", err)
	}
	dek, err := crypt.DEKFromBytes(raw)
	crypt.Zeroize(raw)
	if err != nil {
		return "", crypt.DEK{}, err
	}
	return KeyID(resp.KeyID), dek, nil
}

// FetchDEK implements Service. Fetches are idempotent (the one-time
// budget is only consumed by a successful response reaching a *different*
// server, and re-fetch by the same server is policy-checked server-side),
// so transport failures retry freely.
func (c *Client) FetchDEK(id KeyID) (crypt.DEK, error) {
	resp, err := c.roundTrip(wireRequest{Op: "fetch", KeyID: string(id)})
	if err != nil {
		return crypt.DEK{}, err
	}
	if !resp.OK {
		return crypt.DEK{}, mapWireError(resp.Err)
	}
	raw, err := hex.DecodeString(resp.DEKHex)
	if err != nil {
		return crypt.DEK{}, fmt.Errorf("kds: bad DEK encoding: %w", err)
	}
	dek, err := crypt.DEKFromBytes(raw)
	crypt.Zeroize(raw)
	return dek, err
}

// RevokeDEK implements Service. Revocation is idempotent.
func (c *Client) RevokeDEK(id KeyID) error {
	resp, err := c.roundTrip(wireRequest{Op: "revoke", KeyID: string(id)})
	if err != nil {
		return err
	}
	if !resp.OK {
		return mapWireError(resp.Err)
	}
	return nil
}
