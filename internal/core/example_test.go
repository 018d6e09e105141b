package core_test

import (
	"fmt"
	"log"

	"shield/internal/core"
	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

// Example shows the minimal SHIELD deployment: an in-process KDS, a secure
// DEK cache, and a database whose persistent files are all encrypted with
// per-file keys.
func Example() {
	fs := vfs.NewMem() // use vfs.NewOS() for a real disk

	kdsService := kds.NewLocal(kds.NewStore(kds.DefaultPolicy()), "server-1")
	cache, err := seccache.Open(fs, "dek-cache.bin", []byte("passkey"))
	if err != nil {
		log.Fatal(err)
	}

	db, err := core.Open("db", core.Config{
		Mode:          core.ModeSHIELD,
		FS:            fs,
		KDS:           kdsService,
		Cache:         cache,
		WALBufferSize: 512,
	}, lsm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.Put([]byte("greeting"), []byte("hello, encrypted world")); err != nil {
		log.Fatal(err)
	}
	v, err := db.Get([]byte("greeting"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(v))
	// Output: hello, encrypted world
}

// Example_instanceLevel shows the simpler EncFS design: one instance-wide
// DEK for every file, no KDS and no per-file keys.
func Example_instanceLevel() {
	dek, err := newExampleDEK()
	if err != nil {
		log.Fatal(err)
	}
	db, err := core.Open("db", core.Config{
		Mode:        core.ModeEncFS,
		FS:          vfs.NewMem(),
		InstanceDEK: dek,
	}, lsm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put([]byte("k"), []byte("v"))
	v, _ := db.Get([]byte("k"))
	fmt.Println(string(v))
	// Output: v
}

// newExampleDEK generates the instance key for the EncFS example.
func newExampleDEK() (dek crypt.DEK, err error) { return crypt.NewDEK() }
