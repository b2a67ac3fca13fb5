package cache

import (
	"encoding/json"
	"errors"
	"fmt"
)

// SnapshotVersion is the serialization format version Snapshot writes and
// Restore accepts.
const SnapshotVersion = 1

// ErrBadSnapshot wraps every Restore failure caused by the snapshot data
// itself — truncation, garbage, a wrong format version. Callers detect it
// with errors.Is and continue with a cold cache: a failed Restore never
// modifies the cache, so it stays fully usable.
var ErrBadSnapshot = errors.New("cache: bad snapshot")

// snapshot is the versioned serialized form of a cache: completed,
// error-free entries in most-recently-used-first order, so a restore
// reconstructs both the values and the LRU ordering.
type snapshot[V any] struct {
	Version int            `json:"version"`
	Entries []snapEntry[V] `json:"entries"`
}

type snapEntry[V any] struct {
	Key   string `json:"key"`
	Value V      `json:"value"`
}

// Snapshot serializes every completed, error-free entry to versioned JSON,
// most recently used first. In-flight and failed entries are skipped. The
// value type must be JSON-serializable.
func (c *Cache[V]) Snapshot() ([]byte, error) {
	c.mu.Lock()
	s := snapshot[V]{Version: SnapshotVersion, Entries: []snapEntry[V]{}}
	for e := c.lru.Front(); e != nil; e = e.Next() {
		key := e.Value.(string)
		en := c.entries[key]
		if en == nil || !en.done || en.err != nil {
			continue
		}
		s.Entries = append(s.Entries, snapEntry[V]{Key: key, Value: en.val})
	}
	c.mu.Unlock()
	return json.Marshal(s)
}

// Restore loads a Snapshot into the cache and returns how many entries
// actually survived loading: entries a MaxEntries bound evicts in the same
// call are not counted, so the restored accounting never overstates how
// warm the cache is. Restored entries behave exactly like computed ones: a
// later Get for their key is a hit and runs no compute. Keys already
// present win over the snapshot (live state is fresher), and the LRU order
// of the snapshot is preserved beneath any live entries.
func (c *Cache[V]) Restore(data []byte) (int, error) {
	var s snapshot[V]
	if err := json.Unmarshal(data, &s); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if s.Version != SnapshotVersion {
		return 0, fmt.Errorf("%w: snapshot version %d, want %d", ErrBadSnapshot, s.Version, SnapshotVersion)
	}
	var added []string
	c.mu.Lock()
	// Entries arrive most-recent-first; appending each with PushBack keeps
	// their relative order and places all of them behind entries computed
	// live since boot — a restored entry is never considered fresher than
	// one this process produced itself.
	for _, se := range s.Entries {
		if _, exists := c.entries[se.Key]; exists {
			continue
		}
		en := &entry[V]{val: se.Value, done: true}
		en.once.Do(func() {})
		c.entries[se.Key] = en
		en.elem = c.lru.PushBack(se.Key)
		added = append(added, se.Key)
	}
	c.evictLocked()
	n := 0
	for _, k := range added {
		if _, survived := c.entries[k]; survived {
			n++
		}
	}
	c.mu.Unlock()
	c.restored.Add(int64(n))
	return n, nil
}
