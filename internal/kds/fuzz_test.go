package kds

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"shield/internal/netretry"
)

// FuzzKDSRequest feeds arbitrary bytes through the server's message decoder
// and handler, against a store with one enrolled server that has created one
// key under a create token. The handler must not panic, every reply must be
// either OK or carry an error, and a request from any other server must be
// refused whatever its op, a replay of the enrolled server's token included.
func FuzzKDSRequest(f *testing.F) {
	const (
		owner = "compute-1"
		token = "token-1"
		// fuzzKey stands for the created key, whose ID is random: a request
		// naming it is pointed at that key.
		fuzzKey = "dek-fuzz"
	)
	seed := func(reqs ...wireRequest) {
		var b []byte
		for _, req := range reqs {
			m, err := json.Marshal(req)
			if err != nil {
				f.Fatal(err)
			}
			b = append(append(b, m...), '\n')
		}
		f.Add(b)
	}
	for _, srv := range []string{owner, "ghost"} {
		seed(wireRequest{Op: "create", ServerID: srv})
		seed(wireRequest{Op: "create", ServerID: srv, Token: token})
		seed(wireRequest{Op: "fetch", ServerID: srv, KeyID: fuzzKey})
		seed(wireRequest{Op: "revoke", ServerID: srv, KeyID: fuzzKey})
		seed(wireRequest{Op: "rotate", ServerID: srv, KeyID: fuzzKey})
	}
	seed(wireRequest{Op: "revoke", ServerID: owner, KeyID: fuzzKey},
		wireRequest{Op: "create", ServerID: owner, Token: token},
		wireRequest{Op: "fetch", ServerID: "ghost", KeyID: "dek-unknown"})
	f.Add([]byte(`{"op":"fetch","server_id":`))
	f.Add([]byte(`{"op":["create"]}`))
	f.Add([]byte("\x00\xff{}}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		store := NewStore(DefaultPolicy())
		store.Authorize(owner)
		id, _, err := store.CreateDEKToken(owner, token)
		if err != nil {
			t.Fatal(err)
		}
		srv := &Server{store: store}
		wire := netretry.NewJSONConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard}, maxMessage)
		for {
			var req wireRequest
			if wire.Recv(&req) != nil {
				return
			}
			if req.KeyID == fuzzKey {
				req.KeyID = string(id)
			}
			resp := srv.handle(req)
			if resp.OK == (resp.Err != "") {
				t.Fatalf("%+v: reply %+v is neither OK nor an error", req, resp)
			}
			if req.ServerID != owner && resp.OK {
				t.Fatalf("%+v from a server that is not enrolled: %+v", req, resp)
			}
		}
	})
}
