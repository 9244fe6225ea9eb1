package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one named measurement with its unit, as printed in the result
// line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics, operation and check outcomes, and
// the detail record (run stamp, sample counts, counters) printed beside
// the result line.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
	samples   map[string]int
	detail    map[string]any
}

func newReport() *report {
	return &report{
		metrics: make(map[string]metric),
		samples: make(map[string]int),
		detail:  make(map[string]any),
	}
}

// set records a metric; its unit comes from the metric tables, and a
// name missing from them is a bug in the benchmark.
func (r *report) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op records one call or request into the program: it counts as attempted,
// and as failed when err is non-nil. It returns whether the call succeeded.
func (r *report) op(err error) bool {
	r.attempted++
	if err != nil {
		r.fail(err.Error())
		return false
	}
	return true
}

// check records one correctness check on the program's outputs; a failed
// check counts against ok_frac exactly as a failed call does.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(fmt.Sprintf(format, args...))
	}
}

func (r *report) fail(msg string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

func (r *report) okFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// resultLine is the JSON object the benchmark prints last.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line renders the result for the given metric names. A name the run did
// not measure is a benchmark bug, reported as a failure rather than
// printed as a made-up value.
func (r *report) line(names []string) resultLine {
	out := resultLine{Metrics: make(map[string]metric, len(names))}
	for _, n := range names {
		m, ok := r.metrics[n]
		switch {
		case !ok:
			r.fail("metric " + n + " was not measured")
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			r.fail("metric " + n + " is not finite")
		default:
			out.Metrics[n] = m
		}
	}
	out.Correct = r.failed == 0
	out.Attempted = r.attempted
	out.Failed = r.failed
	return out
}

// detailJSON renders the detail record: the run stamp and diagnostics,
// the sample counts, the failures, and every metric the run measured,
// printed in the result line or not.
func (r *report) detailJSON() []byte {
	d := make(map[string]any, len(r.detail)+3)
	for k, v := range r.detail {
		d[k] = v
	}
	d["samples"] = r.samples
	d["failures"] = r.failures
	d["measured"] = r.metrics
	b, _ := json.Marshal(d) // maps of plain values always marshal
	return b
}

// latencies collects one operation's durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) {
	*l = append(*l, float64(d)/float64(time.Millisecond))
}

func (l latencies) mean() float64 {
	if len(l) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range l {
		s += v
	}
	return s / float64(len(l))
}

// quantile is the nearest-rank q-quantile of the sample.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// backed reports whether n samples put at least ten samples beyond the
// nearest-rank q-quantile, the rule every reported percentile follows.
func backed(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

// percentiles sets <name>_p50 and <name>_p<tail> from the sample, records
// the sample count, and, when enforce is set, fails the run if the count
// does not back the tail percentile.
func (r *report) percentiles(name string, l latencies, tail float64, enforce bool) {
	r.set(name+"_p50", l.quantile(0.5))
	tailName := fmt.Sprintf("%s_p%d", name, int(math.Round(tail*100)))
	r.set(tailName, l.quantile(tail))
	r.samples[name] = len(l)
	if enforce {
		r.check(backed(len(l), tail), "%s: %d samples do not back p%g", tailName, len(l), tail*100)
	}
}

func median(v []float64) float64 {
	return latencies(v).quantile(0.5)
}
