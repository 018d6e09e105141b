package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"shield/internal/crypt"
	"shield/internal/lsm"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/wal"
	"shield/internal/vfs"
)

// The instance key policy (ModeEncFS) at the file level: one DEK for every
// file, a header with an empty DEK-ID, and the same two body formats as the
// per-file policy.

// instanceHeaderLen is the header of a file under the instance key: no
// DEK-ID bytes.
const instanceHeaderLen = 10 + crypt.IVSize

func newInstanceWrapper(t *testing.T, walBuf int) *shieldWrapper {
	t.Helper()
	dek, err := crypt.NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	return newShieldWrapper(Config{Mode: ModeEncFS, InstanceDEK: dek, WALBufferSize: walBuf})
}

// createVia creates name on fs through w.
func createVia(t *testing.T, fs vfs.FS, w lsm.FileWrapper, name string, kind lsm.FileKind) vfs.WritableFile {
	t.Helper()
	raw, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := w.WrapCreate(name, kind, raw)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func writeVia(t *testing.T, fs vfs.FS, w lsm.FileWrapper, name string, kind lsm.FileKind, data []byte) {
	t.Helper()
	f := createVia(t, fs, w, name, kind)
	if err := vfs.WriteFull(f, data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func openVia(fs vfs.FS, w lsm.FileWrapper, name string, kind lsm.FileKind) (vfs.RandomAccessFile, error) {
	raw, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	f, err := w.WrapOpen(name, kind, raw)
	if err != nil {
		raw.Close()
	}
	return f, err
}

func openSequentialVia(fs vfs.FS, w lsm.FileWrapper, name string, kind lsm.FileKind) (vfs.SequentialFile, error) {
	raw, err := fs.OpenSequential(name)
	if err != nil {
		return nil, err
	}
	f, err := w.WrapOpenSequential(name, kind, raw)
	if err != nil {
		raw.Close()
	}
	return f, err
}

// instanceSST writes a random 50 KB payload as a sealed SST under w and
// returns it.
func instanceSST(t *testing.T, fs vfs.FS, w lsm.FileWrapper, name string) []byte {
	t.Helper()
	payload := make([]byte, 50_000)
	rand.New(rand.NewSource(1)).Read(payload)
	writeVia(t, fs, w, name, lsm.FileKindSST, payload)
	return payload
}

// TestInstancePolicyRoundTrip: a sealed SST under the instance key reads
// back whole; the header is hidden from the reader and the raw bytes are
// header + ciphertext + one tag and length per record + the table's tag and
// count.
func TestInstancePolicyRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	w := newInstanceWrapper(t, 0)
	payload := instanceSST(t, fs, w, "f.sst")
	raw, err := vfs.ReadFile(fs, "f.sst")
	if err != nil {
		t.Fatal(err)
	}
	// One Write: records of crypt.SealedRecordMax, a tag and a table entry
	// each, then the table's tag and the count.
	records := (len(payload) + crypt.SealedRecordMax - 1) / crypt.SealedRecordMax
	wantRaw := instanceHeaderLen + len(payload) + records*(crypt.SealedTagSize+4) + crypt.SealedTagSize + 4
	if len(raw) != wantRaw {
		t.Fatalf("raw size %d, want %d", len(raw), wantRaw)
	}
	if bytes.Contains(raw, payload[:64]) {
		t.Fatal("plaintext visible on the base filesystem")
	}
	if id, ok := DEKIDFromHeader(raw); !ok || id != "" {
		t.Fatalf("DEK-ID %q, %v; want the empty instance ID", id, ok)
	}

	f, err := openVia(fs, w, "f.sst", lsm.FileKindSST)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if size, _ := f.Size(); size != int64(len(payload)) {
		t.Fatalf("size %d (header must be hidden)", size)
	}
	if got, err := vfs.ReadAll(f); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: %v", err)
	}
}

// TestInstancePolicyPositionalReads: random ReadAt calls on a sealed SST
// under the instance key return the plaintext at that offset, across block
// boundaries.
func TestInstancePolicyPositionalReads(t *testing.T) {
	fs := vfs.NewMem()
	w := newInstanceWrapper(t, 0)
	payload := instanceSST(t, fs, w, "f.sst")
	f, err := openVia(fs, w, "f.sst", lsm.FileKindSST)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		off := rng.Intn(len(payload) - 1000)
		buf := make([]byte, 1+rng.Intn(1000))
		if _, err := f.ReadAt(buf, int64(off)); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload[off:off+len(buf)]) {
			t.Fatalf("ReadAt(%d,%d) mismatch", off, len(buf))
		}
	}
}

// TestInstancePolicySequentialRead: a CTR WAL under the instance key reads
// back as a stream through WrapOpenSequential, as recovery reads it.
func TestInstancePolicySequentialRead(t *testing.T) {
	fs := vfs.NewMem()
	w := newInstanceWrapper(t, 0)
	stream := []byte("sequential payload for WAL-style recovery reads")
	writeVia(t, fs, w, "f.log", lsm.FileKindWAL, stream)
	sf, err := openSequentialVia(fs, w, "f.log", lsm.FileKindWAL)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if got, err := io.ReadAll(sf); err != nil || !bytes.Equal(got, stream) {
		t.Fatalf("sequential read %q, %v", got, err)
	}
}

// TestInstancePolicyWrongKey: a sealed SST opened under another instance key
// fails its block tags as vfs.ErrIntegrity and yields no plaintext.
func TestInstancePolicyWrongKey(t *testing.T) {
	fs := vfs.NewMem()
	payload := instanceSST(t, fs, newInstanceWrapper(t, 0), "f.sst")
	f, err := openVia(fs, newInstanceWrapper(t, 0), "f.sst", lsm.FileKindSST)
	if err == nil {
		defer f.Close()
		var got []byte
		got, err = vfs.ReadAll(f)
		if bytes.Contains(got, payload[:64]) {
			t.Fatal("wrong key returned plaintext")
		}
	}
	if !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("read under the wrong instance key: want vfs.ErrIntegrity, got %v", err)
	}
}

// TestInstancePolicyFreshNonces: one key for every file means the per-file
// IV is all that separates two files' keystreams and nonces, so identical
// plaintext must never yield identical bodies.
func TestInstancePolicyFreshNonces(t *testing.T) {
	fs := vfs.NewMem()
	w := newInstanceWrapper(t, 0)
	payload := bytes.Repeat([]byte("A"), 1000)
	for _, kind := range []lsm.FileKind{lsm.FileKindSST, lsm.FileKindWAL, lsm.FileKindManifest, lsm.FileKindCurrent} {
		writeVia(t, fs, w, "a", kind, payload)
		writeVia(t, fs, w, "b", kind, payload)
		ra, _ := vfs.ReadFile(fs, "a")
		rb, _ := vfs.ReadFile(fs, "b")
		if bytes.Equal(ra[instanceHeaderLen:], rb[instanceHeaderLen:]) {
			t.Fatalf("%v: same plaintext under one DEK produced identical ciphertext (IV reuse)", kind)
		}
	}
}

// TestInstancePolicyWALBuffer: the WAL buffer holds writes until Sync; a
// sealed file holds a partial block until it is finalized.
func TestInstancePolicyWALBuffer(t *testing.T) {
	fs := vfs.NewMem()
	w := newInstanceWrapper(t, 512)
	size := func(name string) int64 {
		info, err := fs.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size
	}

	f := createVia(t, fs, w, "000001.log", lsm.FileKindWAL)
	f.Write([]byte("small"))
	if got := size("000001.log"); got != instanceHeaderLen {
		t.Fatalf("buffered write leaked early: %d", got)
	}
	f.Sync()
	if got := size("000001.log"); got != instanceHeaderLen+5 {
		t.Fatalf("sync did not flush: %d", got)
	}
	f.Close()

	g := createVia(t, fs, w, "000002.sst", lsm.FileKindSST)
	g.Write([]byte("block"))
	if got := size("000002.sst"); got != instanceHeaderLen {
		t.Fatalf("sealed write leaked before finalization: %d", got)
	}
	g.Close()
	if got := size("000002.sst"); got != instanceHeaderLen+5+crypt.SealedTagSize+4+crypt.SealedTagSize+4 {
		t.Fatalf("sealed close did not finalize: %d", got)
	}
}

// TestInstancePolicyRejectsPlaintext: a file with no header is structural
// damage, not a key problem.
func TestInstancePolicyRejectsPlaintext(t *testing.T) {
	fs := vfs.NewMem()
	w := newInstanceWrapper(t, 0)
	if err := vfs.WriteFile(fs, "plain.sst", []byte("not an encrypted file")); err != nil {
		t.Fatal(err)
	}
	if _, err := openVia(fs, w, "plain.sst", lsm.FileKindSST); !errors.Is(err, lsm.ErrCorruption) {
		t.Fatalf("plain file: want lsm.ErrCorruption, got %v", err)
	}
}

// TestKeyPolicyMismatch: each policy reads only its own headers. A DEK-ID
// under the instance policy, or an instance-key header under the per-file
// policy, is a rewritten header: vfs.ErrIntegrity, the class of a KDS
// disavowal, found without asking the KDS. A legacy EncFS header is refused
// by the serving path as one to migrate, and the migrate wrapper holds it to
// the per-file policy like any instance-key header.
func TestKeyPolicyMismatch(t *testing.T) {
	fs := vfs.NewMem()
	inst := newInstanceWrapper(t, 0)
	store, svc := newTestKDS(t)
	perFile := newShieldWrapper(Config{Mode: ModeSHIELD, KDS: svc})
	body := []byte("some file body")
	writeVia(t, fs, perFile, "perfile.sst", lsm.FileKindSST, body)
	writeVia(t, fs, perFile, "perfile.log", lsm.FileKindWAL, body)
	writeVia(t, fs, inst, "inst.sst", lsm.FileKindSST, body)
	writeVia(t, fs, inst, "inst.log", lsm.FileKindWAL, body)
	legacy := append(legacyHeader(shieldVersion2, [16]byte{1}), make([]byte, 64)...)
	if err := vfs.WriteFile(fs, "legacy.sst", legacy); err != nil {
		t.Fatal(err)
	}
	_, fetched, denied := store.Stats()

	for _, c := range []struct {
		w    lsm.FileWrapper
		name string
	}{{inst, "perfile"}, {perFile, "inst"}} {
		if _, err := openVia(fs, c.w, c.name+".sst", lsm.FileKindSST); !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("%s.sst under the other policy: want vfs.ErrIntegrity, got %v", c.name, err)
		}
		if _, err := openSequentialVia(fs, c.w, c.name+".log", lsm.FileKindWAL); !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("%s.log under the other policy: want vfs.ErrIntegrity, got %v", c.name, err)
		}
	}
	if _, err := openVia(fs, perFile, "legacy.sst", lsm.FileKindSST); !errors.Is(err, lsm.ErrNeedsMigrate) || errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("legacy EncFS header on the serving path: want only lsm.ErrNeedsMigrate, got %v", err)
	}
	if _, err := openVia(fs, migrateWrapper{perFile}, "legacy.sst", lsm.FileKindSST); !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("legacy EncFS header under the per-file policy: want vfs.ErrIntegrity, got %v", err)
	}
	if _, f, d := store.Stats(); f+d != fetched+denied {
		t.Fatalf("%d KDS fetches for headers that name no DEK", f+d-fetched-denied)
	}
}

// TestCurrentSealedOnlyUnderInstancePolicy: an EncFS store's CURRENT hides
// the manifest name and epoch and authenticates, so one flipped byte fails
// the open as an integrity error; a SHIELD store's CURRENT stays plaintext
// for keyless tools.
func TestCurrentSealedOnlyUnderInstancePolicy(t *testing.T) {
	for _, mode := range []Mode{ModeEncFS, ModeSHIELD} {
		t.Run(mode.String(), func(t *testing.T) {
			fs := vfs.NewMem()
			cfg := testConfig(t, mode, fs)
			db, err := Open("db", cfg, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			cur, err := vfs.ReadFile(fs, "db/CURRENT")
			if err != nil {
				t.Fatal(err)
			}
			if mode == ModeSHIELD {
				if !bytes.HasPrefix(cur, []byte("MANIFEST-")) {
					t.Fatalf("SHIELD CURRENT is not plaintext: %q", cur)
				}
				return
			}
			if bytes.Contains(cur, []byte("MANIFEST-")) || bytes.Contains(cur, []byte("epoch")) {
				t.Fatalf("EncFS CURRENT leaks plaintext: %q", cur)
			}
			cur[instanceHeaderLen+2] ^= 0x01
			if err := vfs.WriteFile(fs, "db/CURRENT", cur); err != nil {
				t.Fatal(err)
			}
			if _, err := Open("db", cfg, smallOpts()); !errors.Is(err, vfs.ErrIntegrity) {
				t.Fatalf("open with a flipped CURRENT byte: want vfs.ErrIntegrity, got %v", err)
			}
		})
	}
}

// TestInstancePolicySSTAuditable: an EncFS SST now has the sealed layout a
// storage node can audit without a key — the header's length plus
// crypt.TagChainDigest over the file past that header give the digest its
// manifest records. (The legacy EncFS header never was auditable.)
func TestInstancePolicySSTAuditable(t *testing.T) {
	fs := vfs.NewMem()
	cfg := testConfig(t, ModeEncFS, fs)
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The manifest's digests, read through the wrapper as recovery reads them.
	w, err := cfg.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := openVia(fs, w, "db/CURRENT", lsm.FileKindCurrent)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := vfs.ReadAll(cf)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}
	mf, err := openSequentialVia(fs, w, "db/"+strings.SplitN(string(cur), "\n", 2)[0], lsm.FileKindManifest)
	if err != nil {
		t.Fatal(err)
	}
	r := wal.NewReader(mf)
	defer r.Close()
	digests := map[string]string{}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		edit, err := manifest.DecodeVersionEdit(rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range edit.Added {
			digests[fmt.Sprintf("%06d.sst", a.Meta.FileNum)] = a.Meta.Digest
		}
	}

	infos, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	audited := 0
	for _, fi := range infos {
		want, live := digests[fi.Name]
		if !live {
			continue
		}
		raw, err := vfs.ReadFile(fs, "db/"+fi.Name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := parseHeader(raw)
		if err != nil || h.version != shieldVersion3 {
			t.Fatalf("%s: not a sealed layout", fi.Name)
		}
		f, err := fs.Open("db/" + fi.Name)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := crypt.TagChainDigest(f, int64(h.len))
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(sum); want == "" || got != want {
			t.Fatalf("%s: keyless digest %s, manifest records %q", fi.Name, got, want)
		}
		audited++
	}
	if audited == 0 {
		t.Fatal("no live SST audited")
	}
}
