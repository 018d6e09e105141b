package lsm

import (
	"encoding/binary"
	"fmt"

	"shield/internal/lsm/base"
)

// Batch is an atomic group of writes. Its wire encoding doubles as the WAL
// record format:
//
//	seq(8) count(4) { kind(1) varint(klen) key [varint(vlen) value] }*
//
// seq is assigned at commit time; records within a batch take consecutive
// sequence numbers starting at seq.
type Batch struct {
	data  []byte
	count uint32
	// waiter is the batch's seat in the commit pipeline while a Write of it
	// is in flight (commit.go); living here, Write allocates none.
	waiter commitWaiter
}

const batchHeaderLen = 12

// NewBatch returns an empty batch.
func NewBatch() *Batch {
	return &Batch{data: make([]byte, batchHeaderLen)}
}

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.data = b.data[:batchHeaderLen]
	clear(b.data)
	b.count = 0
}

// Put queues a key/value set.
func (b *Batch) Put(key, value []byte) {
	b.append(base.KindSet, key, value)
}

// Delete queues a tombstone for key.
func (b *Batch) Delete(key []byte) {
	b.append(base.KindDelete, key, nil)
}

func (b *Batch) append(kind base.Kind, key, value []byte) {
	if len(b.data) == 0 {
		b.data = make([]byte, batchHeaderLen)
	}
	var tmp [binary.MaxVarintLen32]byte
	b.data = append(b.data, byte(kind))
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	b.data = append(b.data, tmp[:n]...)
	b.data = append(b.data, key...)
	if kind == base.KindSet {
		n = binary.PutUvarint(tmp[:], uint64(len(value)))
		b.data = append(b.data, tmp[:n]...)
		b.data = append(b.data, value...)
	}
	b.count++
}

// Count returns the number of queued records.
func (b *Batch) Count() uint32 { return b.count }

// Len returns the encoded size in bytes.
func (b *Batch) Len() int { return len(b.data) }

// Empty reports whether the batch holds no records.
func (b *Batch) Empty() bool { return b.count == 0 }

// setSeq stamps the commit sequence into the header.
func (b *Batch) setSeq(seq base.SeqNum) {
	binary.LittleEndian.PutUint64(b.data[:8], uint64(seq))
	binary.LittleEndian.PutUint32(b.data[8:12], b.count)
}

// decodeBatch parses an encoded batch (a WAL record) and invokes fn for each
// record with its assigned sequence number.
func decodeBatch(data []byte, fn func(seq base.SeqNum, kind base.Kind, key, value []byte) error) error {
	if len(data) < batchHeaderLen {
		return fmt.Errorf("lsm: batch too short (%d bytes)", len(data))
	}
	seq := base.SeqNum(binary.LittleEndian.Uint64(data[:8]))
	count := binary.LittleEndian.Uint32(data[8:12])
	p := data[batchHeaderLen:]
	for i := uint32(0); i < count; i++ {
		if len(p) < 1 {
			return fmt.Errorf("lsm: batch truncated at record %d", i)
		}
		kind := base.Kind(p[0])
		p = p[1:]
		klen, n := binary.Uvarint(p)
		if n <= 0 || klen > uint64(len(p)-n) {
			return fmt.Errorf("lsm: batch corrupt key at record %d", i)
		}
		key := p[n : n+int(klen)]
		p = p[n+int(klen):]
		var value []byte
		if kind == base.KindSet {
			vlen, n := binary.Uvarint(p)
			if n <= 0 || vlen > uint64(len(p)-n) {
				return fmt.Errorf("lsm: batch corrupt value at record %d", i)
			}
			value = p[n : n+int(vlen)]
			p = p[n+int(vlen):]
		}
		if err := fn(seq+base.SeqNum(i), kind, key, value); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("lsm: %d trailing bytes in batch", len(p))
	}
	return nil
}
