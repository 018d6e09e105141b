package kds

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"shield/internal/crypt"
	"shield/internal/metrics"
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
	// token resolves to the key already issued for it (Backend.CreateDEKToken).
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
	store Backend
	ln    *netretry.Listener
}

// NewServer starts a KDS server on addr (e.g. "127.0.0.1:0") backed by store.
func NewServer(store Backend, addr string) (*Server, error) {
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

// ClientConfig tunes the client's fault-tolerance behavior. The zero
// value selects the defaults noted per field.
type ClientConfig struct {
	// DialTimeout bounds each connection attempt to one replica
	// (default 1s).
	DialTimeout time.Duration

	// RequestTimeout is the per-attempt deadline covering send and
	// receive, so a hung replica cannot wedge the caller (default 2s).
	RequestTimeout time.Duration

	// MaxAttempts is the total number of transport attempts per request,
	// across replicas (default 4).
	MaxAttempts int

	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// between attempts (defaults 5ms and 250ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 5 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 250 * time.Millisecond
	}
	return cfg
}

// Client is a Service that talks to one or more KDS replicas over TCP.
// Every request carries a deadline and fails over between replicas with
// jittered exponential backoff. Every request is idempotent (fetch and
// revoke by nature, create by the token it carries), so all of them are
// retried across replicas. It is safe for concurrent use; requests are
// serialized over one connection.
type Client struct {
	serverID string
	group    *netretry.Group
	cfg      ClientConfig
	done     chan struct{}

	reqMu sync.Mutex // serializes requests on the shared connection

	mu     sync.Mutex // guards connection state below
	conn   net.Conn
	wire   *netretry.JSONConn
	ep     *netretry.Endpoint // replica the live connection is dialed to
	closed bool
}

// NewClient returns a Service identifying as serverID against the given
// replica addresses, with default fault-tolerance settings.
func NewClient(serverID string, addrs ...string) *Client {
	return NewClientConfig(serverID, ClientConfig{}, addrs...)
}

// NewClientConfig is NewClient with explicit retry/timeout settings.
func NewClientConfig(serverID string, cfg ClientConfig, addrs ...string) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		serverID: serverID,
		group:    netretry.NewGroup(cfg.BackoffBase, cfg.BackoffMax, addrs...),
		cfg:      cfg,
		done:     make(chan struct{}),
	}
}

// Close releases the client connection and unblocks in-flight requests.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.done)
	if c.conn != nil {
		err := c.conn.Close() //shield:nolockio teardown must hold the state lock so a racing connect cannot resurrect the conn; Close does not block
		c.conn = nil
		return err
	}
	return nil
}

// connect returns the live connection, dialing replicas in the group's
// failover order when there is none.
func (c *Client) connect() (net.Conn, *netretry.JSONConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if c.conn != nil {
		conn, wire := c.conn, c.wire
		c.mu.Unlock()
		return conn, wire, nil
	}
	c.mu.Unlock()

	var lastErr error
	for _, ep := range c.group.Sequence() {
		conn, err := net.DialTimeout("tcp", ep.Addr(), c.cfg.DialTimeout)
		if err != nil {
			ep.Failure()
			lastErr = err
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return nil, nil, ErrClosed
		}
		ep.Success()
		c.group.Promote(ep)
		c.ep = ep
		c.conn = conn
		c.wire = netretry.NewJSONConn(conn, maxMessage)
		wire := c.wire
		c.mu.Unlock()
		return conn, wire, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no addresses configured")
	}
	return nil, nil, fmt.Errorf("%w: %v", ErrNoReplica, lastErr)
}

// dropConn discards a failed connection, charges the failure to its
// replica, and rotates the group preference so the next dial tries a
// different server first.
func (c *Client) dropConn(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	var ep *netretry.Endpoint
	if c.conn == conn {
		c.conn = nil
		ep, c.ep = c.ep, nil
	}
	c.mu.Unlock()
	if ep != nil {
		ep.Failure()
		c.group.Advance(ep)
	}
}

// roundTrip sends one request with deadlines, backoff, and failover,
// re-sending it on transport errors.
//
//shield:nolockio reqMu is the request queue: serializing I/O over the shared connection is its whole job
func (c *Client) roundTrip(req wireRequest) (wireResponse, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	req.ServerID = c.serverID

	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			metrics.Net.Retries.Add(1)
			if !netretry.Sleep(netretry.Delay(attempt-1, c.cfg.BackoffBase, c.cfg.BackoffMax), c.done) {
				return wireResponse{}, ErrClosed
			}
		}
		conn, wire, err := c.connect()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return wireResponse{}, err
			}
			lastErr = err // nothing was sent; retryable for every op
			continue
		}
		conn.SetDeadline(time.Now().Add(c.cfg.RequestTimeout)) //nolint:errcheck
		err = wire.Send(&req)
		if err == nil {
			var resp wireResponse
			if err = wire.Recv(&resp); err == nil {
				conn.SetDeadline(time.Time{}) //nolint:errcheck
				return resp, nil
			}
		}
		if netretry.IsTimeout(err) {
			metrics.Net.Timeouts.Add(1)
		}
		c.dropConn(conn)
		lastErr = err
	}
	return wireResponse{}, fmt.Errorf("%w: request failed after %d attempts: %v",
		ErrNoReplica, c.cfg.MaxAttempts, lastErr)
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
