package encfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"shield/internal/crypt"
	"shield/internal/vfs"
)

func newFS(t *testing.T) (*vfs.MemFS, *FS, crypt.DEK) {
	t.Helper()
	base := vfs.NewMem()
	dek, err := crypt.NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	return base, New(base, dek, 0), dek
}

func TestTransparentRoundTrip(t *testing.T) {
	base, efs, _ := newFS(t)
	payload := make([]byte, 50_000)
	rand.New(rand.NewSource(1)).Read(payload)

	if err := vfs.WriteFile(efs, "f.bin", payload); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(efs, "f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}

	// Underlying bytes are ciphertext + header.
	raw, err := vfs.ReadFile(base, "f.bin")
	if err != nil {
		t.Fatal(err)
	}
	// v2 sealed body: one 16-byte GCM tag per 4 KiB block plus the final
	// tail block.
	wantRaw := HeaderLen + len(payload) + (len(payload)/crypt.SealedBlockSize+1)*crypt.SealedTagSize
	if len(raw) != wantRaw {
		t.Fatalf("raw size %d, want %d", len(raw), wantRaw)
	}
	if bytes.Contains(raw, payload[:64]) {
		t.Fatal("plaintext visible on the base filesystem")
	}
}

func TestPositionalReads(t *testing.T) {
	_, efs, _ := newFS(t)
	payload := make([]byte, 10_000)
	rand.New(rand.NewSource(2)).Read(payload)
	vfs.WriteFile(efs, "f", payload)

	f, err := efs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		off := rng.Intn(9000)
		n := 1 + rng.Intn(1000)
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, int64(off)); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload[off:off+n]) {
			t.Fatalf("ReadAt(%d,%d) mismatch", off, n)
		}
	}
	if size, _ := f.Size(); size != int64(len(payload)) {
		t.Fatalf("size %d (header must be hidden)", size)
	}
}

func TestSequentialRead(t *testing.T) {
	_, efs, _ := newFS(t)
	payload := []byte("sequential payload for WAL-style recovery reads")
	vfs.WriteFile(efs, "f", payload)
	sf, err := efs.OpenSequential("f")
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	got, err := io.ReadAll(sf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("sequential read %q", got)
	}
}

func TestWrongKeyFailsAuthentication(t *testing.T) {
	base, efs, _ := newFS(t)
	payload := []byte("the secret payload")
	vfs.WriteFile(efs, "f", payload)

	other, err := crypt.NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	// Format v2 authenticates: a wrong key must fail loudly, never return
	// noise (v1 CTR decrypted to garbage here).
	efs2 := New(base, other, 0)
	got, err := vfs.ReadFile(efs2, "f")
	if err == nil {
		if bytes.Equal(got, payload) {
			t.Fatal("wrong key decrypted correctly?!")
		}
		t.Fatal("wrong key returned unauthenticated bytes")
	}
	if !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("want vfs.ErrIntegrity, got %v", err)
	}
}

func TestNonEncFSFileRejected(t *testing.T) {
	base, efs, _ := newFS(t)
	vfs.WriteFile(base, "plain.txt", []byte("not an encfs file"))
	if _, err := efs.Open("plain.txt"); err == nil {
		t.Fatal("plain file opened as encrypted")
	}
}

func TestPerFileIVsDiffer(t *testing.T) {
	base, efs, _ := newFS(t)
	payload := bytes.Repeat([]byte("A"), 1000)
	vfs.WriteFile(efs, "a", payload)
	vfs.WriteFile(efs, "b", payload)
	ra, _ := vfs.ReadFile(base, "a")
	rb, _ := vfs.ReadFile(base, "b")
	if bytes.Equal(ra[HeaderLen:], rb[HeaderLen:]) {
		t.Fatal("same plaintext under one DEK produced identical ciphertext (IV reuse)")
	}
}

func TestWALBufferVariant(t *testing.T) {
	base := vfs.NewMem()
	dek, _ := crypt.NewDEK()
	efs := New(base, dek, 512)

	// .log files buffer; Sync persists.
	f, err := efs.Create("000001.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("small"))
	if info, _ := base.Stat("000001.log"); info.Size != HeaderLen {
		t.Fatalf("buffered write leaked early: %d", info.Size)
	}
	f.Sync()
	if info, _ := base.Stat("000001.log"); info.Size != HeaderLen+5 {
		t.Fatalf("sync did not flush: %d", info.Size)
	}
	f.Close()

	// Non-log files are sealed (v2): sub-block writes stay buffered until
	// finalization, which emits the tail block plus its GCM tag.
	g, _ := efs.Create("000002.sst")
	g.Write([]byte("block"))
	if info, _ := base.Stat("000002.sst"); info.Size != HeaderLen {
		t.Fatalf("sealed write leaked before finalization: %d", info.Size)
	}
	g.Close()
	if info, _ := base.Stat("000002.sst"); info.Size != HeaderLen+5+crypt.SealedTagSize {
		t.Fatalf("sealed close did not finalize: %d", info.Size)
	}
}

func TestFSOpsDelegate(t *testing.T) {
	_, efs, _ := newFS(t)
	efs.MkdirAll("d")
	vfs.WriteFile(efs, "d/a", []byte("1"))
	if err := efs.Rename("d/a", "d/b"); err != nil {
		t.Fatal(err)
	}
	infos, err := efs.List("d")
	if err != nil || len(infos) != 1 || infos[0].Name != "b" {
		t.Fatalf("list: %v %v", infos, err)
	}
	if err := efs.Remove("d/b"); err != nil {
		t.Fatal(err)
	}
}
