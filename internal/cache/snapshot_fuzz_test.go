package cache

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzCacheRestore feeds arbitrary bytes to Restore. mode picks the cache
// the bytes land in: bit 0 adds two live entries computed before the
// restore, bits 1–2 pick a MaxEntries bound (0 = unbounded, else 1–3), so
// the corpus covers empty, bounded, live and bounded-live caches. Checks:
//
//   - a rejected payload wraps ErrBadSnapshot, reports 0 and leaves
//     Snapshot() byte-unchanged;
//   - an accepted payload leaves a bounded cache within its bound, and the
//     returned count is at most the payload's distinct keys (and equals
//     Restored);
//   - live entries that survive the bound keep their pre-restore values,
//     and the returned count is exactly the restored keys that survived;
//   - the cache's Snapshot() restored into a fresh cache with the same
//     bound re-snapshots byte-identically.
func FuzzCacheRestore(f *testing.F) {
	for _, tc := range badSnapshots {
		f.Add(tc.data, uint8(1))
	}
	valid := []byte(`{"version":1,"entries":[{"key":"a","value":1},{"key":"live","value":99},{"key":"b","value":2},{"key":"a","value":3}]}`)
	for mode := range uint8(8) {
		f.Add(valid, mode)
	}
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		live := mode&1 != 0
		bound := int(mode>>1) % 4
		mk := func() *Cache[int] { return New[int](MaxEntries(bound)) }
		c := mk()
		if live {
			for i, key := range []string{"live", "other"} {
				if _, _, err := c.Get(key, func() (int, error) { return 7 + i, nil }); err != nil {
					t.Fatal(err)
				}
			}
		}
		before, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		n, err := c.Restore(data)
		after, serr := c.Snapshot()
		if serr != nil {
			t.Fatal(serr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("Restore error %v does not wrap ErrBadSnapshot", err)
			}
			if n != 0 || c.Restored() != 0 {
				t.Fatalf("rejected restore reported %d entries (Restored %d)", n, c.Restored())
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("rejected restore changed the cache:\nbefore %s\nafter  %s", before, after)
			}
			return
		}

		var s snapshot[int]
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatalf("Restore accepted a payload that does not decode: %v", err)
		}
		distinct := map[string]bool{}
		for _, se := range s.Entries {
			distinct[se.Key] = true
		}
		if n < 0 || n > len(distinct) {
			t.Fatalf("Restore reported %d entries from %d distinct keys", n, len(distinct))
		}
		if int64(n) != c.Restored() {
			t.Fatalf("Restore returned %d, Restored() = %d", n, c.Restored())
		}
		if bound > 0 && c.Len() > bound {
			t.Fatalf("bounded cache holds %d entries, bound %d", c.Len(), bound)
		}

		fresh := mk()
		m, err := fresh.Restore(after)
		if err != nil {
			t.Fatalf("restoring the cache's own snapshot: %v", err)
		}
		if m != fresh.Len() {
			t.Fatalf("fresh restore reported %d entries, holds %d", m, fresh.Len())
		}
		again, err := fresh.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, again) {
			t.Fatalf("snapshot round trip differs:\nfirst  %s\nsecond %s", after, again)
		}

		// Live entries beat the snapshot: every key present before the
		// restore that is still present holds its pre-restore value, and
		// the returned count is exactly the restored keys that survived.
		var pre, post snapshot[int]
		if err := json.Unmarshal(before, &pre); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(after, &post); err != nil {
			t.Fatal(err)
		}
		liveVals := map[string]int{}
		for _, se := range pre.Entries {
			liveVals[se.Key] = se.Value
		}
		survivors := 0
		for _, se := range post.Entries {
			want, ok := liveVals[se.Key]
			if !ok {
				survivors++
			} else if se.Value != want {
				t.Fatalf("live entry %q = %d after restore, want %d", se.Key, se.Value, want)
			}
		}
		if n != survivors {
			t.Fatalf("Restore reported %d entries, %d restored keys survived", n, survivors)
		}
	})
}
