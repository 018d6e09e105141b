package lsm

import (
	"fmt"
	"sync"

	"shield/internal/cache"
	"shield/internal/lsm/sstable"
	"shield/internal/vfs"
)

// tableCache keeps SST readers open and refcounted. Readers stay usable
// until every borrower releases them, even after the file is dropped from
// the version set.
type tableCache struct {
	fs         vfs.FS
	dir        string
	wrapper    FileWrapper
	blockCache *cache.LRU

	mu      sync.Mutex
	entries map[uint64]*tableEntry
}

// tableEntry is one open table. get hands it out borrowed; the borrower
// gives it back with release.
type tableEntry struct {
	reader  *sstable.Reader
	fileNum uint64
	refs    int
	dead    bool // evicted; close when refs drop to zero
}

func newTableCache(fs vfs.FS, dir string, wrapper FileWrapper, blockCache *cache.LRU) *tableCache {
	return &tableCache{
		fs:         fs,
		dir:        dir,
		wrapper:    wrapper,
		blockCache: blockCache,
		entries:    make(map[uint64]*tableEntry),
	}
}

// get borrows the open table fileNum; the caller must release the entry
// when done. It hands back the entry itself, not a release closure, so a
// Get that finds the table open allocates nothing here.
func (tc *tableCache) get(fileNum uint64) (*tableEntry, error) {
	tc.mu.Lock()
	if e, ok := tc.entries[fileNum]; ok && !e.dead {
		e.refs++
		tc.mu.Unlock()
		return e, nil
	}
	tc.mu.Unlock()

	// Open outside the lock; racing opens are reconciled below.
	name := sstFileName(tc.dir, fileNum)
	raw, err := tc.fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("lsm: opening table %d: %w", fileNum, err)
	}
	wrapped, err := tc.wrapper.WrapOpen(name, FileKindSST, raw)
	if err != nil {
		raw.Close()
		return nil, err
	}
	reader, err := sstable.NewReader(wrapped, sstable.ReaderOptions{Cache: tc.blockCache, FileNum: fileNum})
	if err != nil {
		wrapped.Close()
		return nil, fmt.Errorf("lsm: table %d: %w", fileNum, err)
	}

	tc.mu.Lock()
	if e, ok := tc.entries[fileNum]; ok && !e.dead {
		// Lost the race; use the existing entry.
		e.refs++
		tc.mu.Unlock()
		reader.Close()
		return e, nil
	}
	e := &tableEntry{reader: reader, fileNum: fileNum, refs: 2} // 1 cache ref + 1 borrower
	tc.entries[fileNum] = e
	tc.mu.Unlock()
	return e, nil
}

// release gives back an entry get handed out.
func (tc *tableCache) release(e *tableEntry) {
	tc.mu.Lock()
	e.refs--
	shouldClose := e.refs == 0
	if shouldClose {
		delete(tc.entries, e.fileNum)
	}
	tc.mu.Unlock()
	if shouldClose {
		e.reader.Close()
	}
}

// evict drops the cache's own reference for a deleted file and purges its
// blocks from the block cache.
func (tc *tableCache) evict(fileNum uint64) {
	tc.mu.Lock()
	e, ok := tc.entries[fileNum]
	if ok && !e.dead {
		e.dead = true
		e.refs--
		if e.refs == 0 {
			delete(tc.entries, fileNum)
			tc.mu.Unlock()
			e.reader.Close()
			if tc.blockCache != nil {
				tc.blockCache.EvictFile(fileNum)
			}
			return
		}
	}
	tc.mu.Unlock()
	if tc.blockCache != nil {
		tc.blockCache.EvictFile(fileNum)
	}
}

// close releases every cached reader; outstanding borrows keep theirs alive.
func (tc *tableCache) close() {
	tc.mu.Lock()
	var toClose []*sstable.Reader
	for num, e := range tc.entries {
		if !e.dead {
			e.dead = true
			e.refs--
			if e.refs == 0 {
				toClose = append(toClose, e.reader)
				delete(tc.entries, num)
			}
		}
	}
	tc.mu.Unlock()
	for _, r := range toClose {
		r.Close()
	}
}
