// Command perfbench is the repository's benchmark. It drives the program's
// public packages from outside, in-process (gen, adaptive, cascade) or
// over loopback HTTP (service), runs a fixed campaign list derived from
// the workload seed, checks every output, and prints one JSON result as
// the last line of standard output.
//
//	go run . --workload serve-nethept --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the list a
// second time with spans around every call into a layer and reports the
// per-layer metrics and the tracing overhead instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/adaptive"
	"repro/internal/graph"
)

// instanceSeed is the root seed every instance is prepared with, the
// default of `repro bench` and `repro serve`. The workload seed varies
// the campaigns, not the instance.
const instanceSeed = 1

// config fixes a workload's inputs apart from its seed.
type config struct {
	Dataset   string
	Scale     float64
	Algo      string
	Cost      string
	K         int
	Workers   int     // RR sampling workers
	SetupReps int     // set-ups per run; setup_s is their median
	Rate      float64 // list length per measured second
	Campaigns int     // list length when positive, overriding Rate
	Serve     bool    // drive service.Server over HTTP instead of sessions in-process
	Churn     bool    // checkpoint, mutate, and delete/restore inside campaigns
	Enforce   bool    // fail when a percentile lacks ten samples beyond it
}

// workloads are the benchmark's workloads; README.md says why each was
// chosen.
var workloads = map[string]config{
	"bench-dblp": {
		Dataset: "dblp-s", Scale: 1, Algo: adaptive.AlgoADDATP, Cost: "uniform", K: 50,
		Workers: 2, SetupReps: 3, Rate: 8, Enforce: true,
	},
	"serve-nethept": {
		Dataset: "nethept-s", Scale: 1, Algo: adaptive.AlgoHATP, Cost: "degree-proportional", K: 50,
		Workers: 1, SetupReps: 9, Rate: 85, Serve: true, Enforce: true,
	},
	"serve-churn": {
		Dataset: "nethept-s", Scale: 1, Algo: adaptive.AlgoHATP, Cost: "degree-proportional", K: 50,
		Workers: 1, SetupReps: 9, Rate: 30, Serve: true, Churn: true, Enforce: true,
	},
}

// listLen is the number of campaigns in the list: fixed work, sized so a
// run measures for about the requested seconds on a 2-core host.
func (c config) listLen(seconds int) int {
	if c.Campaigns > 0 {
		return c.Campaigns
	}
	return max(1, int(math.Ceil(c.Rate*float64(seconds))))
}

// options are a run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string // checkpoints and span files go here
	commit   string
}

// runner is one way of running a workload's campaigns.
type runner interface {
	instance() *adaptive.Instance
	pass(seed uint64, n int, budget time.Duration, r *report, tr *tracer) *passStats
	rerun(seed uint64, r *report) []graph.NodeID
	finalChecks(seed uint64, r *report, ps *passStats)
	setCounters(r *report, ps *passStats)
	setSpans(r *report, spans map[string]*spanStats, ps *passStats)
	close()
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: bench-dblp, serve-nethept or serve-churn")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; it fixes the campaign list")
	flag.IntVar(&o.seconds, "seconds", 15, "measured time the campaign list is sized for")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run and per-layer metrics")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for checkpoints and span files")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision, for the run stamp")
	flag.Parse()
	o.trace = trace == 1
	cfg, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	r, err := run(cfg, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
		if !inScope(d.scope, cfg) {
			r.set(d.name, 0)
		}
	}
	line := r.line(names)
	printTable(r, names)
	fmt.Printf("%s\n", r.detailJSON())
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n", out)
	if !line.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d calls and checks failed: %v\n", line.Failed, line.Attempted, r.failures)
		return 1
	}
	return 0
}

// run sets the workload up, runs its campaign list untraced (and, with
// tracing, once more traced), checks the outputs, and returns the report.
func run(cfg config, o options) (*report, error) {
	r := newReport()
	stamp(r, cfg, o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var d runner
	var err error
	if cfg.Serve {
		d, err = setupServe(cfg, o, r, tr)
	} else {
		d, err = setupInproc(cfg, r, tr)
	}
	if err != nil {
		return nil, err
	}
	defer d.close()

	n := cfg.listLen(o.seconds)
	r.detail["list_campaigns"] = n
	// A pass may run blocks again for steal (see runPass) until one and a
	// half times the list's nominal length has gone by.
	budget := 3 * time.Duration(o.seconds) * time.Second / 2
	settle()
	ps := d.pass(o.seed, n, budget, r, nil)
	r.set("live_heap_mb", liveHeapMB())
	setEndToEnd(r, ps, cfg.Enforce)
	setRuntime(r, ps)
	setCounters(r, ps)
	d.setCounters(r, ps)
	checkResults(r, d.instance(), ps)

	if tr != nil {
		settle()
		tps := d.pass(o.seed, n, budget, r, tr)
		checkResults(r, d.instance(), tps)
		same := true
		for i := range ps.results {
			same = same && sameSeeds(ps.seeds(i), tps.seeds(i))
		}
		r.check(same, "the traced pass proposed different seeds from the untraced pass")
		spans := tr.summary()
		setCounters(r, tps)
		d.setCounters(r, tps)
		d.setSpans(r, spans, tps)
		setTraceMetrics(r, spans, ps, tps)
		path := filepath.Join(o.workDir, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if r.op(tr.write(path)) {
			r.detail["trace_file"] = path
		}
	}

	r.check(sameSeeds(d.rerun(o.seed, r), ps.seeds(0)), "a rerun of campaign 0 proposed different seeds")
	d.finalChecks(o.seed, r, ps)
	r.set("ok_frac", r.okFrac())
	return r, nil
}

// setTraceMetrics reports the tracing overhead and the time no span
// covers: the campaign root's self time, the benchmark's own glue.
func setTraceMetrics(r *report, spans map[string]*spanStats, ps, tps *passStats) {
	untraced := float64(ps.campaigns()) / ps.wall.Seconds()
	traced := float64(tps.campaigns()) / tps.wall.Seconds()
	r.set("trace.campaigns_per_s_untraced", untraced)
	r.set("trace.campaigns_per_s_traced", traced)
	r.set("trace.overhead_frac", 1-traced/untraced)
	glue := 0.0
	if root := spans["campaign"]; root != nil {
		glue = 1000 * root.SelfS / float64(root.Count)
	}
	r.set("trace.glue_ms_per_campaign", glue)
	r.set("trace.glue_frac", ratio(glue, ps.campaign.quantile(0.5)))
	r.detail["spans"] = spans
}

func sameSeeds(a, b []graph.NodeID) bool {
	if a == nil || b == nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable writes every measured metric, with its unit, to standard
// error; the printed metrics are marked.
func printTable(r *report, printed []string) {
	mark := make(map[string]bool, len(printed))
	for _, n := range printed {
		mark[n] = true
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		flag := " "
		if mark[n] {
			flag = "*"
		}
		fmt.Fprintf(os.Stderr, "%s %-34s %14.4f %s\n", flag, n, m.Value, m.Unit)
	}
}
