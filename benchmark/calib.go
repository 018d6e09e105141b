package main

import (
	"bytes"
	"io"
	"time"

	"shield/internal/core"
	"shield/internal/crypt"
	"shield/internal/lsm"
	"shield/internal/resp"
	"shield/internal/vfs"
)

// Calibration loops: the cost of single layers driven directly through their
// public API, outside any workload. They give the traced numbers a scale
// (how much of a batch is RESP parsing, how far a Get is from raw AEAD speed)
// and let absolute results be normalised across machines.

// timed calls fn, which performs n units of work per call, until d has
// passed, and returns units per second.
func timed(d time.Duration, n int, fn func() error) (float64, error) {
	t0 := time.Now()
	units := 0
	for time.Since(t0) < d {
		if err := fn(); err != nil {
			return 0, err
		}
		units += n
	}
	return float64(units) / time.Since(t0).Seconds(), nil
}

// calibrateRESP measures the public reader and writer over a canned pipeline
// of 8 GETs and 8 SETs with benchmark-sized keys and values.
func calibrateRESP(d time.Duration) (parseNS, encodeNS float64, err error) {
	var key [keyLen]byte
	var val [valueLen]byte
	appendKey(key[:0], 42)
	fillValue(val[:], 1, 42, 1)

	var canned bytes.Buffer
	w := resp.NewWriter(&canned)
	for i := 0; i < pipelineDepth/2; i++ {
		w.Command(cmdGET, key[:])         //nolint:errcheck // bytes.Buffer
		w.Command(cmdSET, key[:], val[:]) //nolint:errcheck // bytes.Buffer
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	src := bytes.NewReader(canned.Bytes())
	rd := resp.NewReader(src)
	parse, err := timed(d, pipelineDepth, func() error {
		src.Reset(canned.Bytes())
		for i := 0; i < pipelineDepth; i++ {
			if _, err := rd.ReadCommand(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}

	out := resp.NewWriter(io.Discard)
	encode, err := timed(d, pipelineDepth, func() error {
		for i := 0; i < pipelineDepth/2; i++ {
			out.Bulk(val[:]) //nolint:errcheck // io.Discard
			out.Status("OK") //nolint:errcheck // io.Discard
		}
		return out.Flush()
	})
	if err != nil {
		return 0, 0, err
	}
	return 1e9 / parse, 1e9 / encode, nil
}

// calibrateCrypt measures Sealer.SealBlock and OpenBlock at the sealed block
// size, in MB of plaintext per second.
func calibrateCrypt(d time.Duration) (sealMBs, openMBs float64, err error) {
	dek, err := crypt.NewDEK()
	if err != nil {
		return 0, 0, err
	}
	iv, err := crypt.NewIV()
	if err != nil {
		return 0, 0, err
	}
	sealer, err := crypt.NewSealer(dek, iv[:crypt.SealedNoncePrefixLen], []byte("calibration"))
	if err != nil {
		return 0, 0, err
	}
	plain := make([]byte, crypt.SealedBlockSize)
	var sealed, opened []byte
	seal, err := timed(d, crypt.SealedBlockSize, func() error {
		sealed = sealer.SealBlock(sealed[:0], plain, 7, false)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	open, err := timed(d, crypt.SealedBlockSize, func() error {
		opened, err = sealer.OpenBlock(opened[:0], sealed, 7, false)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	return seal / 1e6, open / 1e6, nil
}

// calibratePlain runs the workload generator against the plaintext engine on
// memfs: the machine's speed with no encryption, network or server in the way.
func calibratePlain(seed uint64, keys int, d time.Duration) (putOps, getOps float64, err error) {
	env := &engineEnv{dir: "calib", cfg: core.Config{Mode: core.ModeNone, FS: vfs.NewMem()}, opts: engineOpts()}
	if err := env.cfg.FS.MkdirAll(env.dir); err != nil {
		return 0, 0, err
	}
	if err := env.open(); err != nil {
		return 0, 0, err
	}
	defer env.db.Close() //nolint:errcheck // scratch store, nothing to lose
	stream := newKeyStream(seed, 5, keys, false)
	var key [keyLen]byte
	var val [valueLen]byte
	putOps, err = timed(d, 1, func() error {
		idx := stream.next()
		fillValue(val[:], seed, idx, 1)
		return env.db.Put(appendKey(key[:0], idx), val[:])
	})
	if err != nil {
		return 0, 0, err
	}
	getOps, err = timed(d, 1, func() error {
		// A key the put loop never reached is a miss, which costs a lookup
		// like any other.
		if _, err := env.db.Get(appendKey(key[:0], stream.next())); err != nil && err != lsm.ErrNotFound {
			return err
		}
		return nil
	})
	return putOps, getOps, err
}
