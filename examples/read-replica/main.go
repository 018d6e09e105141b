// Read-replica: the DS optimization of launching on-demand read-only
// instances over shared storage (Section 2.2). A primary ingests on one
// "server"; a read-only replica on another server opens the same encrypted
// directory, resolves DEKs through the metadata DEK-IDs and its own KDS
// identity, and serves queries without writing a byte.
package main

import (
	"fmt"
	"log"
	"time"

	"shield/internal/core"
	"shield/internal/dstore"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/vfs"
)

func main() {
	// Shared disaggregated storage.
	storage, err := dstore.NewServer(vfs.NewMem(), "127.0.0.1:0", 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer storage.Close()

	// KDS shared by both servers. Read replicas re-resolve many DEKs, so
	// this deployment uses a per-server-sharing policy (unbounded fetches)
	// rather than strict one-time provisioning.
	kdsStore := kds.NewStore(kds.Policy{MaxFetches: 0})
	kdsStore.Authorize("primary")
	kdsStore.Authorize("replica")
	kdsSrv, err := kds.NewServer(kdsStore, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer kdsSrv.Close()

	// Primary: ingest and flush.
	primaryFS, err := dstore.Dial(storage.Addr(), 2)
	if err != nil {
		log.Fatal(err)
	}
	defer primaryFS.Close()
	primaryKDS := kds.NewClient("primary", kdsSrv.Addr())
	defer primaryKDS.Close()
	primary, err := core.Open("db", core.Config{
		Mode:          core.ModeSHIELD,
		FS:            primaryFS,
		KDS:           primaryKDS,
		WALBufferSize: 512,
	}, lsm.Options{MemtableSize: 256 << 10})
	if err != nil {
		log.Fatal(err)
	}
	defer primary.Close()

	start := time.Now()
	for i := 0; i < 30_000; i++ {
		k := fmt.Sprintf("article/%06d", i)
		v := fmt.Sprintf("content-%d", i*7)
		if err := primary.Put([]byte(k), []byte(v)); err != nil {
			log.Fatal(err)
		}
	}
	if err := primary.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary ingested 30k records in %v\n", time.Since(start).Round(time.Millisecond))

	// Replica: separate connection, separate KDS identity, read-only open.
	replicaFS, err := dstore.Dial(storage.Addr(), 2)
	if err != nil {
		log.Fatal(err)
	}
	defer replicaFS.Close()
	replicaKDS := kds.NewClient("replica", kdsSrv.Addr())
	defer replicaKDS.Close()
	replica, err := core.Open("db", core.Config{
		Mode: core.ModeSHIELD,
		FS:   replicaFS,
		KDS:  replicaKDS,
	}, lsm.Options{ReadOnly: true})
	if err != nil {
		log.Fatal(err)
	}
	defer replica.Close()

	// Serve reads from the replica while the primary keeps writing.
	go func() {
		for i := 30_000; i < 40_000; i++ {
			primary.Put([]byte(fmt.Sprintf("article/%06d", i)), []byte("new"))
		}
	}()

	readStart := time.Now()
	reads := 0
	for i := 0; i < 30_000; i += 3 {
		k := fmt.Sprintf("article/%06d", i)
		v, err := replica.Get([]byte(k))
		if err != nil {
			log.Fatalf("replica Get(%s): %v", k, err)
		}
		if len(v) == 0 {
			log.Fatalf("empty value for %s", k)
		}
		reads++
	}
	fmt.Printf("replica served %d reads in %v (snapshot as of its open)\n",
		reads, time.Since(readStart).Round(time.Millisecond))

	if err := replica.Put([]byte("x"), []byte("y")); err != nil {
		fmt.Printf("replica writes correctly refused: %v\n", err)
	}
	issued, fetched, _ := kdsStore.Stats()
	fmt.Printf("KDS: %d DEKs issued by primary, %d fetches (replica resolving via DEK-IDs)\n", issued, fetched)
}
