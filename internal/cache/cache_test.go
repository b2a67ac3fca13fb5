package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetComputesOncePerKey(t *testing.T) {
	c := New[int]()
	calls := 0
	for i := 0; i < 3; i++ {
		v, hit, err := c.Get("k", func() (int, error) { calls++; return 42, nil })
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if v != 42 {
			t.Fatalf("Get = %d, want 42", v)
		}
		if wantHit := i > 0; hit != wantHit {
			t.Fatalf("call %d: hit = %v, want %v", i, hit, wantHit)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("Stats = %d/%d, want 2 hits / 1 miss", hits, misses)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestErrorsAreCached(t *testing.T) {
	c := New[int]()
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.Get("bad", func() (int, error) { calls++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("Get err = %v, want boom", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failed compute ran %d times, want 1 (errors are cached)", calls)
	}
}

// TestForgetErrorsRetries is the error-poisoning regression test: with
// ForgetErrors a failing compute is retried on the next Get, and a
// succeeding one is still computed exactly once.
func TestForgetErrorsRetries(t *testing.T) {
	c := New[int](ForgetErrors())
	boom := errors.New("boom")
	calls := 0
	// First attempt fails and must not be memoized.
	if _, _, err := c.Get("flaky", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Get err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after a forgotten error, want 0", c.Len())
	}
	// Retry succeeds; the success is memoized.
	for i := 0; i < 3; i++ {
		v, hit, err := c.Get("flaky", func() (int, error) { calls++; return 9, nil })
		if err != nil || v != 9 {
			t.Fatalf("retry %d: Get = %d, %v", i, v, err)
		}
		if wantHit := i > 0; hit != wantHit {
			t.Fatalf("retry %d: hit = %v, want %v", i, hit, wantHit)
		}
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (one failure retried, one success cached)", calls)
	}
}

// TestLRUEvictionOrder pins the basic LRU contract: touching an entry
// protects it, the least recently used completed entry goes first, and
// evictions are counted.
func TestLRUEvictionOrder(t *testing.T) {
	c := New[string](MaxEntries(3))
	get := func(k string) bool {
		_, hit, err := c.Get(k, func() (string, error) { return "v-" + k, nil })
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		return hit
	}
	get("a")
	get("b")
	get("c")
	get("a") // refresh a: LRU order is now a, c, b
	get("d") // exceeds the bound; b, the least recently used, must go
	if get("b") {
		t.Fatal("b survived eviction; LRU order not honoured")
	}
	// The b lookup recomputed b, pushing the cache over the bound again and
	// evicting c (a and d were both touched more recently).
	if !get("a") || !get("d") {
		t.Fatal("recently used entry was evicted")
	}
	if c.Evictions() < 1 {
		t.Fatalf("Evictions = %d, want >= 1", c.Evictions())
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want the bound 3", c.Len())
	}
}

// TestLRUEvictionProperty runs a randomized access sequence against a
// reference LRU model: the cache's hit/miss outcome must match the model's
// containment on every access.
func TestLRUEvictionProperty(t *testing.T) {
	const bound, keys, accesses = 5, 12, 2000
	c := New[int](MaxEntries(bound))
	rng := rand.New(rand.NewSource(42))

	// Reference model: slice ordered most-recent-first.
	var model []string
	touch := func(k string) bool {
		for i, mk := range model {
			if mk == k {
				model = append(model[:i], model[i+1:]...)
				model = append([]string{k}, model...)
				return true
			}
		}
		model = append([]string{k}, model...)
		if len(model) > bound {
			model = model[:bound]
		}
		return false
	}

	for i := 0; i < accesses; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(keys))
		wantHit := touch(k)
		_, hit, err := c.Get(k, func() (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if hit != wantHit {
			t.Fatalf("access %d (%s): hit = %v, model says %v", i, k, hit, wantHit)
		}
		if c.Len() > bound {
			t.Fatalf("access %d: Len = %d exceeds bound %d with no compute in flight", i, c.Len(), bound)
		}
	}
	if c.Evictions() == 0 {
		t.Fatal("property run produced no evictions; bound never engaged")
	}
}

// TestSnapshotRestoreRoundTrip serializes a populated cache and reloads it
// into a fresh one: every restored key must hit without recomputing, the
// restored count must be reported, and failed/in-flight entries must not
// travel.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := New[float64](ForgetErrors())
	for i, k := range []string{"x", "y", "z"} {
		if _, _, err := src.Get(k, func() (float64, error) { return float64(i) + 0.5, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// A failed entry is forgotten and must not appear in the snapshot.
	src.Get("bad", func() (float64, error) { return 0, errors.New("boom") }) //nolint:errcheck

	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	dst := New[float64]()
	n, err := dst.Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || dst.Restored() != 3 {
		t.Fatalf("restored %d (counter %d), want 3", n, dst.Restored())
	}
	for i, k := range []string{"x", "y", "z"} {
		v, hit, err := dst.Get(k, func() (float64, error) {
			t.Fatalf("restored key %q recomputed", k)
			return 0, nil
		})
		if err != nil || !hit || v != float64(i)+0.5 {
			t.Fatalf("Get(%q) = %g hit=%v err=%v", k, v, hit, err)
		}
	}
	if _, hit, _ := dst.Get("bad", func() (float64, error) { return 1, nil }); hit {
		t.Fatal("failed entry travelled through the snapshot")
	}

	// Version mismatches are rejected.
	if _, err := dst.Restore([]byte(`{"version":99,"entries":[]}`)); err == nil {
		t.Fatal("Restore accepted an unknown snapshot version")
	}
	if _, err := dst.Restore([]byte(`not json`)); err == nil {
		t.Fatal("Restore accepted garbage")
	}
}

// TestRestorePreservesLRUOrder checks that a bounded cache evicts restored
// entries before live ones, and restored entries among themselves in
// snapshot (recency) order.
func TestRestorePreservesLRUOrder(t *testing.T) {
	src := New[int]()
	for _, k := range []string{"old", "mid", "new"} {
		k := k
		src.Get(k, func() (int, error) { return len(k), nil }) //nolint:errcheck
	}
	src.Get("mid", func() (int, error) { return 0, nil }) //nolint:errcheck
	src.Get("new", func() (int, error) { return 0, nil }) //nolint:errcheck
	// LRU order in src is now new, mid, old (most recent first).

	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := New[int](MaxEntries(3))
	dst.Get("live", func() (int, error) { return 1, nil }) //nolint:errcheck
	// Bound 3 with 1 live + 3 snapshot entries: "old" (least recent of the
	// snapshot, behind the live entry) is evicted during the load, and only
	// the survivors are counted as restored.
	if n, err := dst.Restore(data); err != nil || n != 2 {
		t.Fatalf("Restore = %d, %v; want 2 survivors", n, err)
	}
	if dst.Restored() != 2 || dst.Evictions() != 1 {
		t.Fatalf("restored %d / evictions %d, want 2 / 1", dst.Restored(), dst.Evictions())
	}
	if _, hit, _ := dst.Get("live", func() (int, error) { return 1, nil }); !hit {
		t.Fatal("live entry evicted in favour of a restored one")
	}
	if _, hit, _ := dst.Get("old", func() (int, error) { return 0, nil }); hit {
		t.Fatal("least-recent snapshot entry survived past the bound")
	}
}

func TestDistinctKeysComputeIndependently(t *testing.T) {
	c := New[string]()
	for _, k := range []string{"a", "b", "c"} {
		k := k
		v, hit, err := c.Get(k, func() (string, error) { return "v-" + k, nil })
		if err != nil || hit || v != "v-"+k {
			t.Fatalf("Get(%q) = %q hit=%v err=%v", k, v, hit, err)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 3 {
		t.Fatalf("Stats = %d/%d, want 0/3", hits, misses)
	}
}

// TestSingleFlight hammers one key from many goroutines: the computation
// must run exactly once, every caller must observe its value, and exactly
// one caller is the miss.
func TestSingleFlight(t *testing.T) {
	c := New[int]()
	var calls, missCount atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	const goroutines = 32
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, hit, err := c.Get("shared", func() (int, error) {
				calls.Add(1)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Get = %d, %v", v, err)
			}
			if !hit {
				missCount.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	if missCount.Load() != 1 {
		t.Fatalf("%d callers saw a miss, want exactly 1", missCount.Load())
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Fatalf("Stats = %d hits / %d misses, want %d/1", hits, misses, goroutines-1)
	}
}

// badSnapshots is the corrupt-snapshot table, one payload per class of
// unusable input; FuzzCacheRestore seeds its corpus from it too.
var badSnapshots = []struct {
	name string
	data []byte
}{
	{"empty", nil},
	{"garbage", []byte("not json")},
	{"truncated", []byte(`{"version":1,"entries":[{"key":"a"`)},
	{"wrong version", []byte(`{"version":99,"entries":[]}`)},
	{"future version", []byte(`{"version":2,"entries":[{"key":"a","value":1}]}`)},
	{"wrong shape", []byte(`{"version":"one","entries":{}}`)},
	{"array root", []byte(`[1,2,3]`)},
}

// TestRestoreBadSnapshots runs the corrupt-snapshot table: every class of
// unusable payload — truncation, garbage, wrong version, wrong shape —
// returns an error wrapping ErrBadSnapshot and leaves the cache exactly as
// it was: same length, same entries, still serving computes. This is the
// contract bwapd's boot path relies on to warm-start opportunistically and
// fall back to a cold cache on anything unusable.
func TestRestoreBadSnapshots(t *testing.T) {
	for _, tc := range badSnapshots {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int]()
			if _, _, err := c.Get("live", func() (int, error) { return 7, nil }); err != nil {
				t.Fatal(err)
			}
			n, err := c.Restore(tc.data)
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("Restore = %v, want ErrBadSnapshot", err)
			}
			if n != 0 {
				t.Fatalf("Restore reported %d entries from a bad snapshot", n)
			}
			if c.Len() != 1 || c.Restored() != 0 {
				t.Fatalf("bad snapshot mutated the cache: len %d, restored %d", c.Len(), c.Restored())
			}
			v, hit, err := c.Get("live", func() (int, error) { return 0, errors.New("recompute") })
			if err != nil || !hit || v != 7 {
				t.Fatalf("cache unusable after failed restore: %d, %v, %v", v, hit, err)
			}
		})
	}
	// A valid snapshot still loads after any number of failed attempts.
	c := New[int]()
	if _, err := c.Restore([]byte(`not json`)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatal("garbage restore not flagged")
	}
	if n, err := c.Restore([]byte(`{"version":1,"entries":[{"key":"k","value":3}]}`)); err != nil || n != 1 {
		t.Fatalf("good restore after bad: %d, %v", n, err)
	}
}
