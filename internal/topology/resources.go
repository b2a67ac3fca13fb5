package topology

// The machine's contended resources, in one flat index space shared with
// the memsys solver:
//
//	[0, N)       memory controllers, by node
//	[N, 2N)      core ingest caps, by node
//	[2N, 2N+L)   directed interconnect links, by LinkID

// NumResources returns the size of the resource index space: one
// controller and one ingest cap per node plus every directed link.
func (m *Machine) NumResources() int { return 2*len(m.nodes) + len(m.links) }

// ResourcePath returns the resources a transfer from memory on src to a
// consumer on dst crosses, in the order the solver charges them: the
// source controller, the destination ingest cap, then every link on the
// route. The returned slice is shared and must not be modified.
//
// Routes are immutable once the builder returns, so the table for every
// (src, dst) pair is computed once per Machine and memoized, like
// Fingerprint: the solver looks a path up for every flow of every solve.
func (m *Machine) ResourcePath(src, dst NodeID) []int32 {
	m.pathsOnce.Do(m.buildResourcePaths)
	return m.paths[src][dst]
}

// buildResourcePaths fills m.paths from one backing array.
func (m *Machine) buildResourcePaths() {
	n := len(m.nodes)
	size := 0
	for s := range m.routes {
		for d := range m.routes[s] {
			size += 2 + len(m.routes[s][d])
		}
	}
	flat := make([]int32, 0, size)
	m.paths = make([][][]int32, n)
	for s := 0; s < n; s++ {
		m.paths[s] = make([][]int32, n)
		for d := 0; d < n; d++ {
			start := len(flat)
			flat = append(flat, int32(s), int32(n+d))
			for _, l := range m.routes[s][d] {
				flat = append(flat, int32(2*n+int(l)))
			}
			m.paths[s][d] = flat[start:len(flat):len(flat)]
		}
	}
}
