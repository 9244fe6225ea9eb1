package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/sweep"
)

// maxInstances is `repro serve`'s default --max-instances.
const maxInstances = 8

// routes maps the benchmark's route names to the service's route patterns,
// the label of its per-route latency histogram.
var routes = map[string]string{
	"create":     "POST /v1/campaigns",
	"step":       "POST /v1/campaigns/{id}/step",
	"result":     "GET /v1/campaigns/{id}/result",
	"delete":     "DELETE /v1/campaigns/{id}",
	"mutate":     "POST /v1/campaigns/{id}/mutate",
	"checkpoint": "POST /v1/campaigns/{id}/checkpoint",
	"restore":    "POST /v1/campaigns/restore",
}

// server is one in-process campaign server on a loopback listener and the
// single-connection client that drives it.
type server struct {
	hs     *http.Server
	done   chan struct{}
	base   string
	client *http.Client
	reg    *service.Registry
}

func startServer(spec sweep.Spec, ckptDir string) (*server, error) {
	reg := service.NewRegistry(spec, maxInstances)
	srv := service.NewServer(reg, ckptDir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		reg: reg,
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // always http.ErrServerClosed, from close
	}()
	return s, nil
}

// close stops the server and waits until it has stopped serving.
func (s *server) close() {
	s.hs.Close()
	<-s.done
	s.client.CloseIdleConnections()
}

// serveStats is what a serve pass measured beyond the common pass stats.
type serveStats struct {
	route   map[string]*latencies // client-side latency per route
	touched []float64             // nodes touched per mutation
	ckptKB  []float64             // checkpoint file size after each checkpoint
	delta   promSample            // growth of each /metrics series over the kept blocks
	last    promSample            // the latest scrape
}

func newServeStats() *serveStats {
	st := &serveStats{route: make(map[string]*latencies), delta: make(promSample)}
	for name := range routes {
		st.route[name] = &latencies{}
	}
	return st
}

// call sends one request and decodes the JSON reply into out, insisting
// on the expected status; a 429 is a failure like any other. The latency
// covers request construction, the round trip, and decoding.
func (s *server) call(tr *tracer, st *serveStats, route, method, path string, body any, want int, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	t0 := time.Now()
	sp := tr.start("http." + route)
	err := s.roundTrip(method, path, payload, want, out)
	tr.finish(sp)
	if st != nil {
		st.route[route].add(time.Since(t0))
	}
	return err
}

func (s *server) roundTrip(method, path string, payload []byte, want int, out any) error {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// promSample is one scrape of GET /metrics: series (name plus labels, as
// exposed) to value.
type promSample map[string]float64

func (s *server) scrape() (promSample, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(promSample)
	for _, line := range strings.Split(string(data), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: bad sample %q", line)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series of the metric family name, whatever its labels.
func (p promSample) sum(name string) float64 {
	t := 0.0
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

func (st *serveStats) merge(b *serveStats) {
	for name, l := range b.route {
		*st.route[name] = append(*st.route[name], *l...)
	}
	st.touched = append(st.touched, b.touched...)
	st.ckptKB = append(st.ckptKB, b.ckptKB...)
	for k, v := range b.delta {
		st.delta[k] += v
	}
	if b.last != nil {
		st.last = b.last
	}
}

// histMeanMS is the mean of the observations a histogram series gained
// over the pass, in milliseconds.
func (st *serveStats) histMeanMS(name, labels string) float64 {
	return 1000 * ratio(st.delta[name+"_sum"+labels], st.delta[name+"_count"+labels])
}

func (st *serveStats) serviceRouteMS(route string) float64 {
	return st.histMeanMS("repro_http_request_duration_seconds", `{route="`+routes[route]+`"}`)
}

// serveRunner runs campaigns against an in-process server over loopback
// HTTP: create, step until stop, result, delete. With cfg.Churn each
// campaign also checkpoints after every round, mutates after rounds 2 and
// 4, and at round 3 is deleted and restored from its newest checkpoint.
// Two mutations at most keep the registry at three topology epochs
// whatever the list holds, so its size and the live heap do not depend on
// the seed.
type serveRunner struct {
	cfg     config
	spec    sweep.Spec
	key     service.Key
	ckptDir string
	srv     *server
	inst    *adaptive.Instance
}

// setupServe starts the server cfg.SetupReps times, each time from a new
// registry, and keeps the last. Each repetition is timed from server start
// to the end of one untimed warm-up campaign, which prepares the instance
// and leaves a warm batcher; setup_s is their median.
func setupServe(cfg config, o options, r *report, tr *tracer) (*serveRunner, error) {
	d := &serveRunner{
		cfg: cfg,
		spec: sweep.Spec{
			Datasets: []string{cfg.Dataset}, Models: []string{"ic"}, CostSettings: []string{cfg.Cost},
			Algos: []string{cfg.Algo}, Scale: cfg.Scale, K: cfg.K, Seed: instanceSeed, Workers: cfg.Workers,
		},
		key: service.Key{Dataset: cfg.Dataset, Model: "ic", Cost: cfg.Cost, Scale: cfg.Scale},
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "ckpt-")
	if err != nil {
		return nil, err
	}
	if d.ckptDir, err = filepath.Abs(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ready := false
	defer func() {
		if !ready {
			d.close()
		}
	}()
	r.detail["checkpoint_fs"] = fsType(d.ckptDir)
	if tr != nil {
		// The server generates the graph inside its instance preparation,
		// out of the benchmark's reach; time the same call directly.
		ds, err := gen.Lookup(cfg.Dataset)
		if err != nil {
			return nil, err
		}
		sp := tr.start("gen.Generate")
		t0 := time.Now()
		_, err = gen.Generate(ds.Config(cfg.Scale))
		r.set("gen.generate_s", time.Since(t0).Seconds())
		tr.finish(sp)
		if !r.op(err) {
			return nil, err
		}
	}
	var setups []float64
	warm := d.newStats()
	for rep := 0; rep < cfg.SetupReps; rep++ {
		if d.srv != nil {
			d.srv.close()
			d.srv = nil
		}
		settle()
		t0 := time.Now()
		srv, err := startServer(d.spec, d.ckptDir)
		if !r.op(err) {
			return nil, err
		}
		d.srv = srv
		if d.run(-1, campaignSeed(o.seed, warmupIndex), plain, r, nil, warm) == nil {
			return nil, fmt.Errorf("warm-up campaign failed: %v", r.failures)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))
	r.detail["setup_s_reps"] = setups

	inst, err := d.srv.reg.Acquire(d.key)
	if !r.op(err) {
		return nil, err
	}
	prep, err := inst.Prepared()
	inst.Release()
	if !r.op(err) {
		return nil, err
	}
	d.inst = prep.Inst
	r.detail["dataset_n"] = d.inst.G.N()
	r.detail["dataset_m"] = d.inst.G.M()
	ready = true
	return d, nil
}

func (d *serveRunner) instance() *adaptive.Instance { return d.inst }

func (d *serveRunner) close() {
	if d.srv != nil {
		d.srv.close()
	}
	os.RemoveAll(d.ckptDir)
}

// warmupIndex places the warm-up campaign's seed outside any list.
const warmupIndex = 1<<20 - 1

// campaignSeed is the server-side seed of campaign i of the list.
func campaignSeed(seed uint64, i int) uint64 { return seed<<20 + uint64(i) }

// churnSeed is the churn_seed of the mutation after round `round`.
func churnSeed(cseed uint64, round int) uint64 { return cseed ^ 0x9E3779B97F4A7C15*uint64(round) }

// mode selects what a served campaign does besides stepping.
type mode int

const (
	plain      mode = iota // create, step*, result, delete
	writes                 // plus checkpoints and mutations
	withDetour             // plus one delete and restore at round 3
)

func (d *serveRunner) campaignMode() mode {
	if d.cfg.Churn {
		return withDetour
	}
	return plain
}

func (d *serveRunner) newStats() *passStats { return &passStats{serve: newServeStats()} }

// pass runs the campaign list; campaign i has server-side seed
// campaignSeed(seed, i). Each block scrapes /metrics before and after its
// campaigns, outside their timing.
func (d *serveRunner) pass(seed uint64, n int, budget time.Duration, r *report, tr *tracer) *passStats {
	return runPass(n, budget, tr, d.newStats, func(lo, hi int, bs *passStats) {
		st := bs.serve
		m0, err := d.srv.scrape()
		r.op(err)
		for i := lo; i < hi; i++ {
			t0 := time.Now()
			res := d.run(i, campaignSeed(seed, i), d.campaignMode(), r, tr, bs)
			bs.cycle(time.Since(t0))
			bs.add(res)
			d.removeCheckpoints()
		}
		m1, err := d.srv.scrape()
		if r.op(err) && m0 != nil {
			for k, v := range m1 {
				st.delta[k] = v - m0[k]
			}
			st.last = m1
		}
	})
}

// removeCheckpoints deletes the finished campaign's checkpoint files, so
// the directory stays small; it runs outside the timed campaign.
func (d *serveRunner) removeCheckpoints() {
	files, _ := filepath.Glob(filepath.Join(d.ckptDir, "campaign-*")) // the pattern is valid
	for _, f := range files {
		os.Remove(f)
	}
}

type createRequest struct {
	Algo string `json:"algo"`
	Seed uint64 `json:"seed"`
}

type mutateRequest struct {
	ChurnPct  float64 `json:"churn_pct"`
	ChurnSeed uint64  `json:"churn_seed"`
}

// run drives one campaign and returns its result, or nil after a failed
// request (already counted).
func (d *serveRunner) run(i int, cseed uint64, m mode, r *report, tr *tracer, ps *passStats) *adaptive.RunResult {
	st := ps.serve
	call := func(route, method, path string, body any, want int, out any) bool {
		return r.op(d.srv.call(tr, st, route, method, path, body, want, out))
	}
	t0 := time.Now()
	root := tr.startCampaign(i)
	defer tr.finish(root)
	var created struct {
		ID string `json:"id"`
	}
	if !call("create", http.MethodPost, "/v1/campaigns", createRequest{Algo: d.cfg.Algo, Seed: cseed}, http.StatusCreated, &created) {
		return nil
	}
	path := "/v1/campaigns/" + created.ID
	for round := 0; ; {
		var step struct {
			Stop bool `json:"stop"`
		}
		ts := time.Now()
		ok := call("step", http.MethodPost, path+"/step", struct{}{}, http.StatusOK, &step)
		ps.step.add(time.Since(ts))
		if !ok {
			return nil
		}
		if step.Stop {
			break
		}
		round++
		if m == plain {
			continue
		}
		if round == 2 || round == 4 {
			var info struct {
				Touched int `json:"touched"`
			}
			if !call("mutate", http.MethodPost, path+"/mutate", mutateRequest{ChurnPct: 1, ChurnSeed: churnSeed(cseed, round)}, http.StatusOK, &info) {
				return nil
			}
			st.touched = append(st.touched, float64(info.Touched))
		}
		var ck struct {
			File string `json:"file"`
		}
		if !call("checkpoint", http.MethodPost, path+"/checkpoint", struct{}{}, http.StatusOK, &ck) {
			return nil
		}
		fi, err := os.Stat(ck.File)
		if !r.op(err) {
			return nil
		}
		st.ckptKB = append(st.ckptKB, float64(fi.Size())/1024)
		if m == withDetour && round == 3 {
			if !call("delete", http.MethodDelete, path, nil, http.StatusOK, nil) {
				return nil
			}
			var rs struct {
				ID          string   `json:"id"`
				File        string   `json:"restored_from"`
				Quarantined []string `json:"quarantined"`
			}
			if !call("restore", http.MethodPost, "/v1/campaigns/restore", map[string]string{"file": filepath.Base(ck.File)}, http.StatusCreated, &rs) {
				return nil
			}
			r.check(rs.ID == created.ID && rs.File == ck.File && len(rs.Quarantined) == 0,
				"campaign %d: restore gave id %q from %q, quarantined %v", i, rs.ID, rs.File, rs.Quarantined)
		}
	}
	var res adaptive.RunResult
	if !call("result", http.MethodGet, path+"/result", nil, http.StatusOK, &res) {
		return nil
	}
	ps.campaign.add(time.Since(t0))
	if !call("delete", http.MethodDelete, path, nil, http.StatusOK, nil) {
		return nil
	}
	return &res
}

// rerun replays campaign 0 of the list untraced and returns its seeds.
func (d *serveRunner) rerun(seed uint64, r *report) []graph.NodeID {
	return d.rerunMode(seed, d.campaignMode(), r)
}

func (d *serveRunner) rerunMode(seed uint64, m mode, r *report) []graph.NodeID {
	res := d.run(0, campaignSeed(seed, 0), m, r, nil, d.newStats())
	d.removeCheckpoints()
	if res == nil {
		return nil
	}
	return res.Seeds
}

// finalChecks: the warm path held on the read-only workload (one
// preparation for the whole run), no checkpoint was quarantined, and on
// serve-churn the delete→restore detour does not change the campaign.
func (d *serveRunner) finalChecks(seed uint64, r *report, ps *passStats) {
	m, err := d.srv.scrape()
	if !r.op(err) {
		return
	}
	if !d.cfg.Churn {
		prepares := m.sum("repro_registry_prepares_total")
		r.check(prepares == 1, "service.prepares = %v, want 1", prepares)
	}
	q := m.sum("repro_checkpoint_quarantines_total")
	r.check(q == 0, "%v checkpoints were quarantined", q)
	if d.cfg.Churn {
		r.check(sameSeeds(d.rerunMode(seed, writes, r), ps.seeds(0)),
			"campaign 0 without the delete/restore detour proposed different seeds")
	}
}

// setCounters reports the program's own counters for a serve pass: the
// sampler traffic and registry state from /metrics, and the write-path
// latencies and sizes the client saw. ris.ns_per_edge_touch stays the
// results' own ratio, whose time and touches cover the same sessions.
func (d *serveRunner) setCounters(r *report, ps *passStats) {
	st := ps.serve
	drawn, reused := st.delta.sum("repro_rr_sets_drawn_total"), st.delta.sum("repro_rr_sets_reused_total")
	r.set("ris.rr_drawn", drawn)
	r.set("ris.rr_reused", reused)
	r.set("ris.reuse_frac", ratio(reused, drawn+reused))
	r.set("ris.rr_visits", st.delta.sum("repro_rr_visits_total"))
	r.set("ris.rr_edge_touches", st.delta.sum("repro_rr_edge_touches_total"))
	for name := range routes {
		r.set("service."+name+"_ms_mean", st.serviceRouteMS(name))
	}
	stepMS := st.histMeanMS("repro_campaign_step_duration_seconds", "")
	r.set("service.campaign_step_ms_mean", stepMS)
	r.set("service.step_handler_overhead_ms", st.serviceRouteMS("step")-stepMS)
	r.set("service.prepares", st.last.sum("repro_registry_prepares_total"))
	r.set("service.evictions", st.last.sum("repro_registry_evictions_total"))
	r.set("service.registry_entries", st.last.sum("repro_registry_entries"))
	r.set("service.throttled", st.delta.sum("repro_http_throttled_total"))
	for name, l := range st.route {
		r.set("http."+name+"_ms_mean", l.mean())
	}
	r.set("http.step_transport_ms", st.route["step"].mean()-st.serviceRouteMS("step"))
	if d.cfg.Churn {
		r.percentiles("mutate_ms", *st.route["mutate"], 0.90, d.cfg.Enforce)
		r.percentiles("checkpoint_ms", *st.route["checkpoint"], 0.90, d.cfg.Enforce)
		r.percentiles("restore_ms", *st.route["restore"], 0.90, d.cfg.Enforce)
		r.set("graph.touched_per_mutate", latencies(st.touched).mean())
		r.set("service.checkpoint_kb_mean", latencies(st.ckptKB).mean())
	}
}

// setSpans has nothing to add for serve passes: every layer the client
// calls is an HTTP route, already timed per route.
func (d *serveRunner) setSpans(*report, map[string]*spanStats, *passStats) {}
