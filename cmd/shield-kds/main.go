// Command shield-kds runs a standalone Key Distribution Service node.
//
// Several shield-kds processes fronting the same deployment model the
// decentralized replica set; clients (kds.NewClient) fail over between
// them. Servers named with -authorize may create and fetch DEKs; everything
// else is denied.
//
// With -store the key table is durable: a sealed log under -master-key to
// which every issue, spent fetch budget, revocation and enrollment appends
// a record before the request is answered. The periodic stats line counts
// issued keys from the table (across restarts) and fetches and denials
// since this process started.
//
// Usage:
//
//	shield-kds -addr :7601 -authorize compute-1,worker-1 -latency 2750us
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"shield/internal/kds"
	"shield/internal/vfs"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7601", "listen address")
		authorize = flag.String("authorize", "", "comma-separated server IDs allowed to request DEKs")
		latency   = flag.Duration("latency", 0, "synthetic per-request service latency (e.g. 2750us to mimic SSToolkit)")
		maxFetch  = flag.Int("max-fetches", 1, "fetches allowed per DEK-ID for non-creators (0 = unlimited; 1 = one-time provisioning)")
		storePath = flag.String("store", "", "path of the encrypted log of durable key state (empty = in-memory only)")
		masterKey = flag.String("master-key", "", "master secret sealing the key-state log (required with -store)")
	)
	flag.Parse()

	policy := kds.Policy{MaxFetches: *maxFetch, Latency: *latency}
	store := kds.NewStore(policy)
	if *storePath != "" {
		if *masterKey == "" {
			log.Fatal("-store requires -master-key")
		}
		var err error
		if store, err = kds.OpenPersistentStore(vfs.NewOS(), *storePath, []byte(*masterKey), policy); err != nil {
			log.Fatal(err)
		}
		log.Printf("durable key store at %s", *storePath)
	}
	for _, id := range strings.Split(*authorize, ",") {
		if id = strings.TrimSpace(id); id != "" {
			store.Authorize(id)
			log.Printf("authorized server %q", id)
		}
	}

	srv, err := kds.NewServer(store, *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shield-kds listening on %s (latency=%v, max-fetches=%d)", srv.Addr(), *latency, *maxFetch)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(30 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			log.Print("shutting down")
			srv.Close()
			return
		case <-tick.C:
			issued, fetched, denied := store.Stats()
			fmt.Printf("stats: keys issued=%d; since start: fetched=%d denied=%d\n", issued, fetched, denied)
		}
	}
}
