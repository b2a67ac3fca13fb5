package topology

import (
	"sync"
	"testing"
)

// TestResourcePath checks every pair's path against the routing table:
// source controller, destination ingest cap, then the route's links. The
// table is built lazily, so the first calls race from several goroutines
// on a fresh Machine, as the fleet's probe workers do on a shared one.
func TestResourcePath(t *testing.T) {
	for _, m := range []*Machine{MachineA(), MachineB()} {
		n := m.NumNodes()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						m.ResourcePath(NodeID(s), NodeID(d))
					}
				}
			}()
		}
		wg.Wait()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				want := []int32{int32(s), int32(n + d)}
				for _, l := range m.Route(NodeID(s), NodeID(d)) {
					want = append(want, int32(2*n+int(l)))
				}
				got := m.ResourcePath(NodeID(s), NodeID(d))
				if len(got) != len(want) {
					t.Fatalf("%s %d->%d: path %v, want %v", m.Name, s, d, got, want)
				}
				for i := range want {
					if got[i] != want[i] || int(got[i]) >= m.NumResources() {
						t.Fatalf("%s %d->%d: path %v, want %v", m.Name, s, d, got, want)
					}
				}
			}
		}
	}
}
