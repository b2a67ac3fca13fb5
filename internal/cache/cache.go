// Package cache provides a keyed single-flight result cache: each key's
// value is computed exactly once, concurrent first users of the same key
// share one computation, and distinct keys compute in parallel.
//
// The pattern originated as the canonical tuner's per-worker-set profiling
// cache (core package); the fleet scheduler's tuning cache needs the same
// semantics with a different value type, so it lives here as a generic.
//
// Two policies are configurable at construction:
//
//   - MaxEntries bounds the cache with LRU eviction of completed entries
//     (in-flight computations are never evicted), for long-lived
//     multi-tenant daemons whose key space grows without bound;
//   - ForgetErrors drops a failed computation instead of memoizing it, so
//     a transient failure does not poison its key forever. Without it both
//     errors and values are cached — the first outcome is the outcome —
//     which is what strict replay determinism wants.
//
// Completed entries can be serialized with Snapshot and reloaded with
// Restore, which is how a daemon's tuning cache survives restarts.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Option configures a cache at construction.
type Option func(*options)

type options struct {
	maxEntries   int
	forgetErrors bool
}

// MaxEntries bounds the cache to n completed entries, evicting the least
// recently used when the bound is exceeded. n <= 0 means unbounded.
func MaxEntries(n int) Option {
	return func(o *options) { o.maxEntries = n }
}

// ForgetErrors makes a failed computation transient: the entry is removed
// once the compute returns an error, so the next Get for that key retries
// instead of replaying the cached failure. Callers already blocked on the
// in-flight computation still observe the shared error.
func ForgetErrors() Option {
	return func(o *options) { o.forgetErrors = true }
}

// Cache is a keyed single-flight cache. The zero value is not usable; call
// New. It is safe for concurrent use.
type Cache[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V]
	// lru orders keys most-recently-used first; every map entry has a
	// matching element (entries forgotten on error are removed from both).
	lru       list.List
	opt       options
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	restored  atomic.Int64
}

type entry[V any] struct {
	once sync.Once
	val  V
	err  error
	// done is set under the cache mutex after once completes; eviction
	// skips entries that are still in flight.
	done bool
	elem *list.Element
}

// New returns an empty cache with the given options.
func New[V any](opts ...Option) *Cache[V] {
	c := &Cache[V]{entries: make(map[string]*entry[V])}
	for _, o := range opts {
		o(&c.opt)
	}
	return c
}

// Get returns the value for key, running compute exactly once per key. The
// caller that creates the entry counts as a miss; every other caller —
// including those that block on an in-flight computation — counts as a hit.
// The returned hit flag reports which side this call was on.
func (c *Cache[V]) Get(key string, compute func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	en, ok := c.entries[key]
	if !ok {
		en = &entry[V]{}
		c.entries[key] = en
		en.elem = c.lru.PushFront(key)
	} else {
		c.lru.MoveToFront(en.elem)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	en.once.Do(func() { en.val, en.err = compute() })
	c.finish(key, en)
	return en.val, ok, en.err
}

// finish records a completed computation: marks the entry done, applies
// the forget-on-error policy, and enforces the entry bound. Idempotent —
// every Get that shared the computation calls it for the same entry.
func (c *Cache[V]) finish(key string, en *entry[V]) {
	c.mu.Lock()
	if !en.done {
		en.done = true
		if en.err != nil && c.opt.forgetErrors && c.entries[key] == en {
			delete(c.entries, key)
			c.lru.Remove(en.elem)
		}
	}
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked enforces the entry bound: the least recently used
// *completed* entries go while more than maxEntries remain. In-flight
// entries are skipped (their callers hold live references and evicting
// them would duplicate the computation), so the cache may transiently
// exceed the bound while computations are in flight.
func (c *Cache[V]) evictLocked() {
	if c.opt.maxEntries <= 0 {
		return
	}
	for e := c.lru.Back(); e != nil && len(c.entries) > c.opt.maxEntries; {
		prev := e.Prev()
		key := e.Value.(string)
		if en := c.entries[key]; en != nil && en.done {
			delete(c.entries, key)
			c.lru.Remove(e)
			c.evictions.Add(1)
		}
		e = prev
	}
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache[V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns how many completed entries the LRU bound has dropped.
func (c *Cache[V]) Evictions() int64 { return c.evictions.Load() }

// Restored returns how many entries Restore has loaded.
func (c *Cache[V]) Restored() int64 { return c.restored.Load() }

// Len returns the number of keys present (computed or in flight).
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
