package main

import (
	"strings"
	"testing"

	"shield/internal/core"
	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/vfs"
)

// TestDescribeEncryption: one label per header kind — the instance key, a
// per-file DEK, the legacy EncFS header, and none.
func TestDescribeEncryption(t *testing.T) {
	sstOf := func(cfg core.Config) []byte {
		t.Helper()
		db, err := core.Open("db", cfg, lsm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		infos, err := cfg.FS.List("db")
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			if strings.HasSuffix(fi.Name, ".sst") {
				data, err := vfs.ReadFile(cfg.FS, "db/"+fi.Name)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
		}
		t.Fatal("no SST written")
		return nil
	}
	dek, err := crypt.NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := vfs.ReadFile(vfs.NewOS(), "../../internal/core/testdata/parent_encfs/db/001285.sst")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		data []byte
		want string
	}{
		{sstOf(core.Config{Mode: core.ModeEncFS, FS: vfs.NewMem(), InstanceDEK: dek}), "instance DEK"},
		{sstOf(core.Config{Mode: core.ModeSHIELD, FS: vfs.NewMem(), KDS: kds.NewLocal(kds.NewStore(kds.Policy{}), "s")}), "per-file DEK dek-"},
		{legacy, "legacy EncFS instance DEK"},
		{sstOf(core.Config{Mode: core.ModeNone, FS: vfs.NewMem()}), "plaintext (or foreign format)"},
	} {
		if got := describeEncryption(c.data); !strings.HasPrefix(got, c.want) {
			t.Errorf("describeEncryption = %q, want prefix %q", got, c.want)
		}
	}
}
