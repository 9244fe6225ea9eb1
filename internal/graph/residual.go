package graph

import "fmt"

// Residual is a view of a Graph with a subset of nodes removed — the
// paper's residual graph G_i obtained by deleting every node activated by
// earlier seeds. It is a mask over the immutable CSR arrays: removal is
// O(1), membership checks are O(1), and no adjacency is copied.
//
// The alive-node list is maintained incrementally (swap-remove on Remove,
// rebuilt only on Reset), so uniform root sampling reads it in O(1) via
// AliveList instead of rebuilding an O(N) slice per residual version.
// Membership is a dense bitset (n/8 bytes) next to it, so the per-node
// liveness tests of RR sampling and Collection.Filter stay cache-resident
// on graphs whose 4-byte-per-node position array spills the caches.
//
// A Residual is not safe for concurrent mutation; concurrent readers are
// fine between mutations. Clone produces an independent view sharing the
// underlying Graph.
type Residual struct {
	g *Graph
	// aliveList holds the alive node IDs in an order determined by the
	// removal history (swap-remove); pos[u] is u's index in aliveList, or
	// -1 when u has been removed.
	aliveList []NodeID
	pos       []int32
	// alive has bit u&63 of word u>>6 set iff u is alive; bits past N are
	// zero.
	alive   []uint64
	version int64 // bumped on every mutation; lets caches detect staleness
}

// NewResidual returns a residual view of g with all nodes alive.
func NewResidual(g *Graph) *Residual {
	r := &Residual{
		g:         g,
		aliveList: make([]NodeID, g.N()),
		pos:       make([]int32, g.N()),
		alive:     make([]uint64, (g.N()+63)/64),
	}
	r.fillAlive()
	return r
}

// fillAlive resets the alive bookkeeping to "all nodes alive, increasing
// ORIGINAL-ID order". On identity-numbered graphs that is 0..n-1; on a
// degree-renumbered graph slot i holds the internal ID of original node
// i, so uniform root draws (alive[Intn(n)]) land on the same original
// node under either numbering — the root-sampling half of the
// renumbering invariance contract.
func (r *Residual) fillAlive() {
	r.aliveList = r.aliveList[:r.g.N()]
	for u := range r.aliveList {
		v := r.g.InternalID(NodeID(u))
		r.aliveList[u] = v
		r.pos[v] = int32(u)
	}
	for i := range r.alive {
		r.alive[i] = ^uint64(0)
	}
	if tail := r.g.N() & 63; tail != 0 {
		r.alive[len(r.alive)-1] = 1<<tail - 1
	}
}

// Graph returns the underlying immutable graph.
func (r *Residual) Graph() *Graph { return r.g }

// N returns the number of alive nodes (the paper's n_i).
func (r *Residual) N() int { return len(r.aliveList) }

// FullN returns the node count of the underlying graph.
func (r *Residual) FullN() int { return r.g.N() }

// Version returns a counter that changes whenever the alive set changes.
func (r *Residual) Version() int64 { return r.version }

// Alive reports whether node u is still present.
func (r *Residual) Alive(u NodeID) bool { return r.alive[u>>6]>>(uint(u)&63)&1 != 0 }

// AliveBits returns the membership bitset without allocating: bit u&63 of
// word u>>6 is set iff u is alive. The slice aliases internal storage,
// must not be modified, and reflects every later mutation. Scans that
// test many nodes (Collection.Filter) read it directly.
func (r *Residual) AliveBits() []uint64 { return r.alive }

// Remove deletes node u from the view in O(1) (swap-remove on the alive
// list). Removing an already-removed node is a no-op. Returns true if the
// node was alive.
func (r *Residual) Remove(u NodeID) bool {
	i := r.pos[u]
	if i < 0 {
		return false
	}
	last := len(r.aliveList) - 1
	moved := r.aliveList[last]
	r.aliveList[i] = moved
	r.pos[moved] = i
	r.aliveList = r.aliveList[:last]
	r.pos[u] = -1
	r.alive[u>>6] &^= 1 << (uint(u) & 63)
	r.version++
	return true
}

// RemoveAll deletes every node in us.
func (r *Residual) RemoveAll(us []NodeID) {
	for _, u := range us {
		r.Remove(u)
	}
}

// AliveList returns the alive node IDs without allocating. The slice
// aliases internal storage, must not be modified, and is only valid until
// the next mutation; its order is a deterministic function of the removal
// history (not sorted). Samplers draw uniform roots from it directly.
func (r *Residual) AliveList() []NodeID { return r.aliveList }

// AliveNodes returns a copy of the alive node IDs in increasing order.
// Allocates; hot paths should use AliveList.
func (r *Residual) AliveNodes() []NodeID {
	out := make([]NodeID, 0, len(r.aliveList))
	for u := 0; u < len(r.pos); u++ {
		if r.pos[u] >= 0 {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// M returns the number of directed edges with both endpoints alive (the
// paper's m_i). O(M); used by complexity accounting, not hot paths.
func (r *Residual) M() int64 {
	var m int64
	for u := int32(0); u < int32(r.g.N()); u++ {
		if r.pos[u] < 0 {
			continue
		}
		adj, _ := r.g.OutNeighbors(u)
		for _, v := range adj {
			if r.pos[v] >= 0 {
				m++
			}
		}
	}
	return m
}

// Clone returns an independent copy of the view over the same Graph,
// including the alive-list order, so sampling after a clone matches
// sampling after the original's history.
func (r *Residual) Clone() *Residual {
	cp := &Residual{
		g:         r.g,
		aliveList: make([]NodeID, len(r.aliveList), r.g.N()),
		pos:       make([]int32, len(r.pos)),
		alive:     make([]uint64, len(r.alive)),
		version:   r.version,
	}
	copy(cp.aliveList, r.aliveList)
	copy(cp.pos, r.pos)
	copy(cp.alive, r.alive)
	return cp
}

// RestoreAlive rewrites the view to exactly the given alive list — in the
// given order — and version counter, discarding the current state. It is
// the checkpoint-restore counterpart of AliveList: the list order is a
// deterministic function of the removal history and feeds uniform root
// sampling, so restoring it verbatim makes post-restore sampling
// bit-identical to the uninterrupted run. The input slice is copied.
func (r *Residual) RestoreAlive(alive []NodeID, version int64) error {
	n := NodeID(r.g.N())
	if len(alive) > int(n) {
		return fmt.Errorf("graph: restore with %d alive nodes on a %d-node graph", len(alive), n)
	}
	for i := range r.pos {
		r.pos[i] = -1
	}
	for i := range r.alive {
		r.alive[i] = 0
	}
	r.aliveList = r.aliveList[:0]
	for i, u := range alive {
		if u < 0 || u >= n {
			return fmt.Errorf("graph: restore alive node %d outside [0,%d)", u, n)
		}
		if r.pos[u] >= 0 {
			return fmt.Errorf("graph: restore alive list repeats node %d", u)
		}
		r.pos[u] = int32(i)
		r.alive[u>>6] |= 1 << (uint(u) & 63)
		r.aliveList = append(r.aliveList, u)
	}
	r.version = version
	return nil
}

// Reset restores all nodes to alive (and the alive list to increasing
// order).
func (r *Residual) Reset() {
	r.fillAlive()
	r.version++
}
