package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"shield/internal/lsm"
	"shield/internal/vfs"
)

// TestKeylessScrubOfEncryptedStores: a keyless (ModeNone) scrub of an
// EncFS store, whose CURRENT is ciphertext, and of a SHIELD store, whose
// MANIFEST is, fails with the "encrypted format ... rerun with the keys"
// error, dry run or not. It is not a *CorruptionError, it does not print
// CURRENT's bytes, it leaves every file byte-identical and it creates no
// lost/ directory.
func TestKeylessScrubOfEncryptedStores(t *testing.T) {
	for _, mode := range []Mode{ModeEncFS, ModeSHIELD} {
		for _, dry := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/dry=%v", mode, dry), func(t *testing.T) {
				fs := vfs.NewMem()
				db, err := Open("db", testConfig(t, mode, fs), smallOpts())
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 100; i++ {
					if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				before := storeFiles(t, fs)
				current := before["db/CURRENT"]

				_, err = Scrub("db", Config{Mode: ModeNone, FS: fs}, lsm.Options{}, lsm.ScrubOptions{DryRun: dry})
				var corrupt *lsm.CorruptionError
				switch {
				case err == nil:
					t.Fatal("keyless scrub of an encrypted store succeeded")
				case errors.As(err, &corrupt):
					t.Fatalf("keyless scrub: %v, a *CorruptionError", err)
				case !strings.Contains(err.Error(), "encrypted format") || !strings.Contains(err.Error(), "rerun with the keys"):
					t.Fatalf("keyless scrub: %v, want the encrypted-format error", err)
				}
				if first := strings.SplitN(current, "\n", 2)[0]; mode == ModeEncFS && strings.Contains(err.Error(), fmt.Sprintf("%q", strings.TrimSpace(first))) {
					t.Fatalf("the error prints CURRENT's ciphertext: %v", err)
				}
				after := storeFiles(t, fs)
				if len(after) != len(before) {
					t.Fatalf("scrub changed the file set: %d files before, %d after", len(before), len(after))
				}
				for name, data := range before {
					if after[name] != data {
						t.Fatalf("scrub changed %s", name)
					}
				}
				if entries, err := fs.List("db/lost"); err == nil && len(entries) > 0 {
					t.Fatalf("scrub quarantined %d files", len(entries))
				}
			})
		}
	}
}

// storeFiles reads every file of the store in db.
func storeFiles(t *testing.T, fs vfs.FS) map[string]string {
	t.Helper()
	entries, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := vfs.ReadFile(fs, "db/"+e.Name)
		if err != nil {
			t.Fatal(err)
		}
		out["db/"+e.Name] = string(data)
	}
	return out
}
