package cascade

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// SpreadOn returns I_φ(S) restricted to a residual view: the number of
// nodes reachable from S along live edges of the realization, seeds
// included, where removed nodes neither activate nor relay influence.
// Seeds that are not alive contribute nothing; a nil res is the full
// graph.
func SpreadOn(rz *Realization, res *graph.Residual, seeds []graph.NodeID) int {
	return len(bfs(nil, rz, res, seeds, make([]bool, rz.g.N())))
}

// AppendActivated appends A(S) to dst and returns the extended slice:
// the exact set of nodes activated by seeding S under the realization,
// restricted to the residual view if res != nil, including the (alive)
// seeds themselves, in BFS order. visited is caller-owned scratch of
// length N that must be all false; it is all false again on return
// (reset from the appended nodes), so a caller that observes many
// cascades on one graph pays O(|A(S)|) per call instead of allocating
// and zeroing an N-entry mask.
func AppendActivated(dst []graph.NodeID, rz *Realization, res *graph.Residual, seeds []graph.NodeID, visited []bool) []graph.NodeID {
	out := bfs(dst, rz, res, seeds, visited)
	for _, u := range out[len(dst):] {
		visited[u] = false
	}
	return out
}

// bfs appends the nodes activated from seeds (restricted to res when
// non-nil) to queue in BFS order — the appended tail is the BFS queue
// itself — marking each in visited, and returns the extended slice.
func bfs(queue []graph.NodeID, rz *Realization, res *graph.Residual, seeds []graph.NodeID, visited []bool) []graph.NodeID {
	head := len(queue)
	for _, s := range seeds {
		if !visited[s] && (res == nil || res.Alive(s)) {
			visited[s] = true
			queue = append(queue, s)
		}
	}
	for ; head < len(queue); head++ {
		for _, v := range rz.LiveOut(queue[head]) {
			if !visited[v] && (res == nil || res.Alive(v)) {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// MonteCarloSpread estimates E[I(S)] on g by averaging I_φ(S) over reps
// fresh realizations. Deterministic given r's state.
func MonteCarloSpread(g *graph.Graph, model Model, seeds []graph.NodeID, reps int, r *rng.RNG) float64 {
	if reps <= 0 {
		panic("cascade: MonteCarloSpread needs reps > 0")
	}
	return monteCarlo(g, nil, model, seeds, reps, r)
}

// MonteCarloSpreadOn estimates the expected spread of seeds on a residual
// view of g. Realizations are drawn on the full graph; dead nodes are
// excluded from activation, which matches the paper's E[I_{G_i}(·)]
// because live edges incident to dead nodes can never fire.
func MonteCarloSpreadOn(res *graph.Residual, model Model, seeds []graph.NodeID, reps int, r *rng.RNG) float64 {
	if reps <= 0 {
		panic("cascade: MonteCarloSpreadOn needs reps > 0")
	}
	return monteCarlo(res.Graph(), res, model, seeds, reps, r)
}

// monteCarlo averages the spread of seeds (on res when non-nil) over reps
// realizations drawn one after another from r. One visited mask and one
// queue serve every rep.
func monteCarlo(g *graph.Graph, res *graph.Residual, model Model, seeds []graph.NodeID, reps int, r *rng.RNG) float64 {
	visited := make([]bool, g.N())
	var queue []graph.NodeID
	total := 0
	for i := 0; i < reps; i++ {
		queue = AppendActivated(queue[:0], Sample(g, model, r), res, seeds, visited)
		total += len(queue)
	}
	return float64(total) / float64(reps)
}
