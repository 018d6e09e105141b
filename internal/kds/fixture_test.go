package kds

import (
	"encoding/hex"
	"errors"
	"testing"

	"shield/internal/vfs"
)

// parentSnapshotHex is a KDS snapshot written by the build before the
// sealed-state codec was shared with the secure cache (master key
// "fixture-master-key"): the on-disk layout is an instance of the shared
// codec, so it must keep opening.
const parentSnapshotHex = "" +
	"5053444b01000000af4bc583faa7c89fb0bd21dcc0f753684e010000e0da0597a7d1bb427ef1b21237076cae0a7321ed" +
	"db4f009a77dbae0835d299568b059cbbac6e12bb151294159be87c2937d9dfee5586a100d394123fb4be678f714a0b6a" +
	"c8a7c3a81882e95b08f58de7aa196f6c29985609e2d9b5cf4e31d9c446dcdd6bb065a46e2a7032d7eca9c1811988fb41" +
	"973e57ca22e230ad3b96e11e2520c0169a605dd83eed970a3da3b0219fca024ee4bc8794dbb37f17dd4b831927924710" +
	"a6282b8b6e2be012bc2604254439eee6e8973f036618d9a976c430e01b9cba381d01eeaebd22557b19df30132ab0a6a0" +
	"0079bb82094a0d0a814f1545e4e358adf7a028c800729deddd92f5c3ae7358b471775d90416f2e0b7f2749930365e2bc" +
	"e28e2cea9df91e1be7a640fc30fee8bf5d0a82eb435190a7881c9b3457191d643f14f3f6037b5f667a30779ead372a3c" +
	"91f63a043969adc9527f86f975b063b666a66192d07e13cf7db6f691455daef6155492a9ecbade9b3f30e43b832fb776" +
	"9057b670ea08a015b0ed"

func TestOpensParentWrittenSnapshot(t *testing.T) {
	data, err := hex.DecodeString(parentSnapshotHex)
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewMem()
	if err := vfs.WriteFile(fs, "kds.state", data); err != nil {
		t.Fatal(err)
	}
	ps, err := OpenPersistentStore(fs, "kds.state", []byte("fixture-master-key"), Policy{MaxFetches: 3})
	if err != nil {
		t.Fatal(err)
	}
	const id1, id2 = KeyID("dek-4d94cf6a224a551f7a4ae973"), KeyID("dek-bb898b869d88449afa65860e")
	dek, err := ps.FetchDEK("compute-1", id1)
	if err != nil || hex.EncodeToString(dek[:]) != "b91930696cd00985b594b12c7f90c5ba" {
		t.Fatalf("%s = %x, %v", id1, dek, err)
	}
	if _, err := ps.FetchDEK("compute-1", id2); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("revoked key: %v", err)
	}
	if _, err := ps.FetchDEK("compute-2", id1); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked server: %v", err)
	}
	if issued, _, _ := ps.Stats(); issued != 2 {
		t.Fatalf("issued = %d, want 2", issued)
	}
	if _, err := OpenPersistentStore(fs, "kds.state", []byte("another master key"), DefaultPolicy()); !errors.Is(err, ErrBadMasterKey) {
		t.Fatalf("wrong master key: %v", err)
	}
}
