package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/graph"
)

// passStats is what one run of the campaign list, or of one block of it,
// measured and returned.
type passStats struct {
	wall     time.Duration // sum of campaign cycles, benchmark checks excluded
	campaign latencies     // session open (or create) to result
	step     latencies     // one propose+observe round

	results []*adaptive.RunResult // list order; nil where the campaign failed

	// Sampler counters summed over the results.
	samplingNS, rrDrawn, rrReused, rrVisits, rrTouches int64
	rrPeakBytes                                        int64
	attempts, rrBatches, certifiedEarly, fallbacks     int
	rounds                                             int

	// Go runtime work over the measured blocks.
	allocBytes uint64
	gcCycles   uint32
	mem0       runtime.MemStats

	// Host CPU the hypervisor stole while the kept blocks ran, and the
	// blocks run again because it stole too much.
	stolen, jiffies uint64
	attemptSteal    []float64 // steal share of every block attempt, kept or not
	repeats         int

	serve *serveStats // nil in-process
}

func (ps *passStats) begin() { runtime.ReadMemStats(&ps.mem0) }

func (ps *passStats) end() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ps.allocBytes = m.TotalAlloc - ps.mem0.TotalAlloc
	ps.gcCycles = m.NumGC - ps.mem0.NumGC
}

func (ps *passStats) cycle(d time.Duration) { ps.wall += d }

// add folds one campaign's result into the pass.
func (ps *passStats) add(res *adaptive.RunResult) {
	ps.results = append(ps.results, res)
	if res == nil {
		return
	}
	ps.samplingNS += res.SamplingNS
	ps.rrDrawn += res.RRDrawn
	ps.rrReused += res.RRReused
	ps.rrVisits += res.RRVisits
	ps.rrTouches += res.RREdgeTouches
	ps.rrPeakBytes = max(ps.rrPeakBytes, res.RRPeakBytes)
	ps.attempts += res.Attempts
	ps.rrBatches += res.RRBatches
	ps.certifiedEarly += res.CertifiedEarly
	ps.fallbacks += res.Fallbacks
	ps.rounds += res.Rounds
}

// merge appends a kept block to the pass.
func (ps *passStats) merge(b *passStats) {
	ps.wall += b.wall
	ps.campaign = append(ps.campaign, b.campaign...)
	ps.step = append(ps.step, b.step...)
	for _, res := range b.results {
		ps.add(res)
	}
	ps.allocBytes += b.allocBytes
	ps.gcCycles += b.gcCycles
	ps.stolen += b.stolen
	ps.jiffies += b.jiffies
	if b.serve != nil {
		ps.serve.merge(b.serve)
	}
}

func (ps *passStats) campaigns() int { return len(ps.results) }

func (ps *passStats) profitMean() float64 {
	s, n := 0.0, 0
	for _, res := range ps.results {
		if res != nil {
			s += res.Profit
			n++
		}
	}
	return ratio(s, float64(n))
}

func (ps *passStats) seeds(i int) []graph.NodeID {
	if i >= len(ps.results) || ps.results[i] == nil {
		return nil
	}
	return ps.results[i].Seeds
}

// Blocks and steal gating. The host lends the VM its CPUs and sometimes
// takes them back: /proc/stat counts that time as steal. A run during which
// the host stole a tenth of the CPU reads about a fifth slower, end to end,
// than one it left alone. So the list runs in passBlocks blocks, and a
// block during which more than maxSteal of the CPU time was stolen is run
// again (the same campaigns, so the work stays fixed) up to maxAttempts
// times, or until the pass has run for its budget. The decision reads only
// the host's counter, never the block's own timings.
const (
	passBlocks  = 16
	maxSteal    = 0.02
	maxAttempts = 5
)

// blockFunc runs campaigns [lo, hi) of the list into bs.
type blockFunc func(lo, hi int, bs *passStats)

// runPass runs a list of n campaigns block by block, repeating blocks the
// host stole from, and returns the kept blocks merged. When no attempt of
// a block is quiet, the least stolen-from one is kept.
func runPass(n int, budget time.Duration, tr *tracer, newStats func() *passStats, block blockFunc) *passStats {
	ps := newStats()
	nb := min(n, passBlocks)
	deadline := time.Now().Add(budget)
	for b := 0; b < nb; b++ {
		lo, hi := b*n/nb, (b+1)*n/nb
		var best *passStats
		var bestSpans []span
		for attempt := 1; ; attempt++ {
			mark := tr.mark()
			bs := newStats()
			s0, t0 := readSteal()
			bs.begin()
			block(lo, hi, bs)
			bs.end()
			s1, t1 := readSteal()
			bs.stolen, bs.jiffies = s1-s0, t1-t0
			share := ratio(float64(bs.stolen), float64(bs.jiffies))
			ps.attemptSteal = append(ps.attemptSteal, share)
			spans := tr.cut(mark)
			if best == nil || share < ratio(float64(best.stolen), float64(best.jiffies)) {
				best, bestSpans = bs, spans
			}
			if share <= maxSteal || attempt == maxAttempts || time.Now().After(deadline) {
				break
			}
			ps.repeats++
		}
		tr.paste(bestSpans)
		ps.merge(best)
	}
	return ps
}

// readSteal returns the host's steal and total CPU time counters from the
// first line of /proc/stat, in clock ticks; zeros where it is unreadable,
// which keeps every block.
func readSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// checkResults verifies every campaign's outcome against the instance:
// seeds are distinct members of T, rounds equals the seed count, and the
// profit is the spread minus the seeds' cost under the instance's cost
// model.
func checkResults(r *report, inst *adaptive.Instance, ps *passStats) {
	inT := make(map[graph.NodeID]bool, len(inst.Targets))
	for _, u := range inst.Targets {
		inT[u] = true
	}
	for i, res := range ps.results {
		if res == nil {
			continue // the failed call is already counted
		}
		seen := make(map[graph.NodeID]bool, len(res.Seeds))
		ok := res.Rounds == len(res.Seeds)
		for _, u := range res.Seeds {
			ok = ok && inT[u] && !seen[u]
			seen[u] = true
		}
		r.check(ok, "campaign %d: seeds %v are not %d distinct targets", i, res.Seeds, res.Rounds)
		want := float64(res.Spread) - inst.Costs.Total(res.Seeds)
		r.check(math.Abs(res.Profit-want) <= 1e-9*math.Max(1, math.Abs(want)),
			"campaign %d: profit %v, spread minus cost is %v", i, res.Profit, want)
	}
}

// setEndToEnd reports the end-to-end metrics of an untraced pass.
func setEndToEnd(r *report, ps *passStats, enforce bool) {
	n := ps.campaigns()
	r.set("campaigns_per_s", float64(n)/ps.wall.Seconds())
	r.percentiles("campaign_ms", ps.campaign, 0.90, enforce)
	r.percentiles("step_ms", ps.step, 0.99, enforce)
	r.set("profit_mean", ps.profitMean())
	r.samples["campaigns"] = n
	r.detail["blocks_repeated"] = ps.repeats
	r.detail["steal_frac"] = ratio(float64(ps.stolen), float64(ps.jiffies))
	r.detail["attempt_steal"] = ps.attemptSteal
}

// setCounters reports the sampler counters of a pass.
func setCounters(r *report, ps *passStats) {
	r.set("ris.sampling_s", float64(ps.samplingNS)/1e9)
	r.set("ris.rr_drawn", float64(ps.rrDrawn))
	r.set("ris.rr_reused", float64(ps.rrReused))
	r.set("ris.reuse_frac", ratio(float64(ps.rrReused), float64(ps.rrDrawn+ps.rrReused)))
	r.set("ris.rr_visits", float64(ps.rrVisits))
	r.set("ris.rr_edge_touches", float64(ps.rrTouches))
	r.set("ris.ns_per_edge_touch", ratio(float64(ps.samplingNS), float64(ps.rrTouches)))
	r.set("ris.rr_peak_mb", float64(ps.rrPeakBytes)/(1<<20))
	r.set("adaptive.attempts", float64(ps.attempts))
	r.set("adaptive.rr_batches", float64(ps.rrBatches))
	r.set("adaptive.certified_early", float64(ps.certifiedEarly))
	// A campaign decides once per round plus once to stop.
	r.set("adaptive.fallback_frac", ratio(float64(ps.fallbacks), float64(ps.rounds+ps.campaigns())))
}

// setRuntime reports allocation and GC work per pass from the Go runtime.
func setRuntime(r *report, ps *passStats) {
	r.set("go.alloc_mb_per_campaign", ratio(float64(ps.allocBytes)/(1<<20), float64(ps.campaigns())))
	r.set("go.gc_cycles", float64(ps.gcCycles))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// settle collects garbage and returns freed memory to the OS, so a timed
// phase starts from the same heap state whatever ran before it.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// liveHeapMB is the heap still in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
