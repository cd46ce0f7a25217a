package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/fpga"
	"binpart/internal/mcc"
	"binpart/internal/platform"
	"binpart/internal/progen"
	"binpart/internal/sim"
)

const (
	// conns bounds the load generator: at most this many goroutines and
	// connections (the reference host has two cores).
	conns = 2
	// warmRequestsPerSecond and mixedRequestsPerSecond fix a run's request
	// count per nominal second. A 2-core host serves about 10k warm
	// requests per second.
	warmRequestsPerSecond = 7500
	// warmPoolSize is how many distinct warm request bodies a seed draws.
	warmPoolSize           = 256
	mixedRequestsPerSecond = 5000
	// mixedColdEvery places one never-repeated upload in every block of
	// this many requests, at a seeded position.
	mixedColdEvery = 50
	// roundRequests is how many requests one daemon serves in a serving
	// run's measured phase; a run measures as many fresh daemons as its
	// request count needs. The daemon retains memory per request, and a
	// bigger heap makes its GC take more of the two cores, so rounds stay
	// short.
	roundRequests = 10000
	// servingPasses splits each round into equal consecutive passes.
	servingPasses = 10
	// probeRequests is how many distinct warm requests the traced run
	// replays over one connection to attribute the round trip.
	probeRequests = 64
)

// apiRequest mirrors cmd/bpartd's request body, every field included so
// that the traced JSON decode costs what the daemon's does.
type apiRequest struct {
	Bench string `json:"bench,omitempty"`
	Opt   int    `json:"opt,omitempty"`
	SBF   []byte `json:"sbf,omitempty"`

	MHz             float64 `json:"mhz,omitempty"`
	Device          string  `json:"device,omitempty"`
	Alg             string  `json:"alg,omitempty"`
	AreaBudgetGates int     `json:"area_budget_gates,omitempty"`
	Whole           bool    `json:"whole,omitempty"`
	JumpTables      *bool   `json:"jumptables,omitempty"`
	Engine          string  `json:"engine,omitempty"`
	Structure       bool    `json:"structure,omitempty"`

	Sweep  string    `json:"sweep,omitempty"`
	Clocks []float64 `json:"clocks,omitempty"`
}

// metricsJSON and partitionResponse mirror cmd/bpartd's response body.
type metricsJSON struct {
	AppSpeedup    float64 `json:"app_speedup"`
	KernelSpeedup float64 `json:"kernel_speedup"`
	EnergySavings float64 `json:"energy_savings"`
	AreaGates     int     `json:"area_gates"`
}

type partitionResponse struct {
	Report    string      `json:"report"`
	Metrics   metricsJSON `json:"metrics"`
	Selected  int         `json:"selected"`
	SWCycles  uint64      `json:"sw_cycles"`
	ExitCode  int32       `json:"exit_code"`
	ElapsedUS int64       `json:"elapsed_us"`
}

func responseFor(rep *core.Report, report string) partitionResponse {
	m := rep.Metrics
	return partitionResponse{
		Report:   report,
		Metrics:  metricsJSON{AppSpeedup: m.AppSpeedup, KernelSpeedup: m.KernelSpeedup, EnergySavings: m.EnergySavings, AreaGates: m.AreaGates},
		Selected: len(rep.SelectedRegions()),
		SWCycles: rep.SWCycles,
		ExitCode: rep.ExitCode,
	}
}

// expect is an expected /v1/partition response body with its two
// measured fields cut out: the response must read head, then the
// partition wall time, then mid, then the elapsed_us digits, then "}\n".
type expect struct{ head, mid []byte }

func newExpect(rep *core.Report, report string) (expect, error) {
	body, err := json.Marshal(responseFor(rep, report))
	if err != nil {
		return expect{}, err
	}
	body = append(body, '\n')
	marker := []byte(fmt.Sprintf("partition (%s, ", rep.Options.Algorithm))
	i := bytes.Index(body, marker)
	if i < 0 {
		return expect{}, fmt.Errorf("expected report has no %q line", marker)
	}
	i += len(marker)
	j := i + bytes.Index(body[i:], []byte("):"))
	const elapsed = `"elapsed_us":`
	k := bytes.LastIndex(body, []byte(elapsed)) + len(elapsed)
	if j < i || k < j {
		return expect{}, errors.New("expected response has an unexpected shape")
	}
	return expect{head: body[:i], mid: body[j:k]}, nil
}

// match compares a response body against the expectation, masking only
// the measured partition time and elapsed_us.
func (e expect) match(body []byte) bool {
	if !bytes.HasPrefix(body, e.head) {
		return false
	}
	rest := body[len(e.head):]
	j := bytes.Index(rest, []byte("):"))
	if j < 0 || j > 32 || bytes.ContainsAny(rest[:j], `"\`) {
		return false
	}
	rest = rest[j:]
	if !bytes.HasPrefix(rest, e.mid) {
		return false
	}
	rest = rest[len(e.mid):]
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	return n > 0 && string(rest[n:]) == "}\n"
}

// request is one prepared /v1/partition call and its expected response.
type request struct {
	api  apiRequest
	body []byte
	exp  expect
	cold bool // a never-repeated upload
}

// oracle computes expected responses in-process with the same options
// the daemon derives from a request: core.RunWith + core.RenderReport.
type oracle struct {
	caches *core.Caches
	base   core.Options
	tamper bool
}

// newOracle mirrors bpartd's shipped defaults: 200 MHz, XC2V2000, 90-10,
// the fused simulator engine.
func newOracle(tamper bool) *oracle {
	base := core.DefaultOptions()
	dev, err := fpga.ByName("XC2V2000")
	if err != nil {
		panic(err) // the catalog is compiled in
	}
	base.Platform = platform.MIPS(200, dev)
	base.Algorithm = core.AlgNinetyTen
	eng, err := sim.ParseEngine("fused")
	if err != nil {
		panic(err)
	}
	base.Sim.Engine = eng
	return &oracle{caches: core.NewCaches(), base: base, tamper: tamper}
}

// options applies a request's overrides the way bpartd's decode does.
func (o *oracle) options(req apiRequest) (core.Options, error) {
	opts := o.base
	if req.MHz != 0 || req.Device != "" {
		mhz := opts.Platform.CPUMHz
		if req.MHz != 0 {
			mhz = req.MHz
		}
		dev := opts.Platform.Device
		if req.Device != "" {
			var err error
			if dev, err = fpga.ByName(req.Device); err != nil {
				return opts, err
			}
		}
		opts.Platform = platform.MIPS(mhz, dev)
	}
	switch req.Alg {
	case "":
	case "90-10":
		opts.Algorithm = core.AlgNinetyTen
	case "greedy":
		opts.Algorithm = core.AlgGreedy
	case "gclp":
		opts.Algorithm = core.AlgGCLP
	default:
		return opts, fmt.Errorf("unknown algorithm %q", req.Alg)
	}
	return opts, nil
}

// image resolves the request's binary through the oracle's compile cache.
func (o *oracle) image(req apiRequest) (*binimg.Image, error) {
	if len(req.SBF) > 0 {
		return binimg.Unmarshal(req.SBF)
	}
	b, ok := bench.ByName(req.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", req.Bench)
	}
	return b.CompileCached(req.Opt, o.caches.Compile)
}

func (o *oracle) request(api apiRequest, cold bool) (*request, error) {
	img, err := o.image(api)
	if err != nil {
		return nil, err
	}
	opts, err := o.options(api)
	if err != nil {
		return nil, err
	}
	rep, err := core.RunWith(img, opts, o.caches)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", describe(api), err)
	}
	report := core.RenderReport(rep, false)
	if o.tamper {
		report = strings.Replace(report, "platform: ", "platform: tampered ", 1)
	}
	exp, err := newExpect(rep, report)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(api)
	if err != nil {
		return nil, err
	}
	return &request{api: api, body: body, exp: exp, cold: cold}, nil
}

func describe(api apiRequest) string {
	if api.Bench != "" {
		return fmt.Sprintf("%s -O%d", api.Bench, api.Opt)
	}
	return fmt.Sprintf("%d-byte SBF upload", len(api.SBF))
}

// suiteInput is one suite benchmark at one opt level.
type suiteInput struct {
	bench string
	opt   int
}

// suiteInputs lists every suite benchmark at O0-O3: the warm-up set.
func suiteInputs() []suiteInput {
	var out []suiteInput
	for _, b := range bench.All() {
		for opt := 0; opt <= 3; opt++ {
			out = append(out, suiteInput{b.Name, opt})
		}
	}
	return out
}

// warmPool draws distinct warm request bodies from the seed: a suite
// benchmark at O0-O3 with, each half the time, a CPU clock and a device
// override, and one of the three algorithms or the default.
func warmPool(rng *rand.Rand, o *oracle) ([]*request, error) {
	suite := bench.All()
	mhzs := []float64{40, 100, 200, 400}
	algs := []string{"", "90-10", "greedy", "gclp"}
	seen := map[string]bool{}
	var pool []*request
	for len(pool) < warmPoolSize {
		api := apiRequest{Bench: suite[rng.Intn(len(suite))].Name, Opt: rng.Intn(4)}
		if rng.Intn(2) == 0 {
			api.MHz = mhzs[rng.Intn(len(mhzs))]
		}
		if rng.Intn(2) == 0 {
			api.Device = fpga.Catalog[rng.Intn(len(fpga.Catalog))].Name
		}
		api.Alg = algs[rng.Intn(len(algs))]
		key := fmt.Sprintf("%+v", api)
		if seen[key] {
			continue
		}
		seen[key] = true
		req, err := o.request(api, false)
		if err != nil {
			return nil, err
		}
		pool = append(pool, req)
	}
	return pool, nil
}

// warmupRequests covers every suite benchmark at O0-O3 with default
// options, so the daemon's Analysis cache holds every warm request's
// analysis (platform, device and algorithm are evaluate-time inputs).
func warmupRequests(o *oracle) ([]*request, error) {
	var out []*request
	for _, in := range suiteInputs() {
		req, err := o.request(apiRequest{Bench: in.bench, Opt: in.opt}, false)
		if err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	return out, nil
}

// daemon is one bpartd child process.
type daemon struct {
	cmd     *exec.Cmd
	dir     string
	stderr  bytes.Buffer
	waitErr chan error
	api     string
	ops     string
	client  *http.Client
	stopped bool
}

func startDaemon(cfg config) (*daemon, error) {
	dir, err := os.MkdirTemp(cfg.work, "bpartd-")
	if err != nil {
		return nil, err
	}
	addrFile, opsFile := filepath.Join(dir, "addr"), filepath.Join(dir, "ops-addr")
	d := &daemon{dir: dir, waitErr: make(chan error, 1)}
	d.cmd = exec.Command(filepath.Join(cfg.bin, "bpartd"),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-ops-addr", "127.0.0.1:0", "-ops-addr-file", opsFile)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start bpartd: %w", err)
	}
	go func() { d.waitErr <- d.cmd.Wait() }()
	d.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		api, err1 := os.ReadFile(addrFile)
		ops, err2 := os.ReadFile(opsFile)
		if err1 == nil && err2 == nil && len(api) > 0 && len(ops) > 0 {
			d.api, d.ops = "http://"+string(api), "http://"+string(ops)
			resp, err := d.client.Get(d.api + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case err := <-d.waitErr:
			d.stopped = true
			os.RemoveAll(dir)
			return nil, fmt.Errorf("bpartd exited during start-up: %v: %s", err, d.stderr.Bytes())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("bpartd did not become ready within 20s")
		}
	}
}

// stop sends SIGTERM and waits for the drain. The daemon must exit 0
// and report a clean shutdown; the result is its peak RSS in MB.
func (d *daemon) stop() (float64, error) {
	d.client.CloseIdleConnections()
	defer os.RemoveAll(d.dir)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, fmt.Errorf("signal bpartd: %w", err)
	}
	var err error
	select {
	case err = <-d.waitErr:
	case <-time.After(30 * time.Second):
		d.kill()
		return 0, errors.New("bpartd did not exit within 30s of SIGTERM")
	}
	d.stopped = true
	if err != nil {
		return 0, fmt.Errorf("bpartd exit on SIGTERM: %v: %s", err, d.stderr.Bytes())
	}
	if !bytes.Contains(d.stderr.Bytes(), []byte("shutdown clean")) {
		return 0, fmt.Errorf("bpartd exited without \"shutdown clean\": %s", d.stderr.Bytes())
	}
	return maxRSSMB(d.cmd.ProcessState), nil
}

// kill ends the child on error paths and waits for it; a no-op once
// the child has been stopped.
func (d *daemon) kill() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Kill() //nolint:errcheck // it may already have exited
	<-d.waitErr
	os.RemoveAll(d.dir)
}

// timing is one request's send and completion times.
type timing struct {
	sent, done time.Time
	cold       bool
	err        error
}

// post sends one request and checks its response against the oracle.
// done is taken when the body has been read, before the comparison.
func (d *daemon) post(req *request, buf *bytes.Buffer) (time.Time, error) {
	resp, err := d.client.Post(d.api+"/v1/partition", "application/json", bytes.NewReader(req.body))
	if err != nil {
		return time.Now(), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		return done, err
	}
	if resp.StatusCode != http.StatusOK {
		return done, fmt.Errorf("%s: status %d: %s", describe(req.api), resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	if !req.exp.match(buf.Bytes()) {
		return done, fmt.Errorf("%s: response differs from in-process core.RunWith+RenderReport", describe(req.api))
	}
	return done, nil
}

// closedLoop sends seq over conns connections, each sending its next
// request when the previous one completes.
func (d *daemon) closedLoop(seq []*request) []timing {
	// The saturating loop runs its Go code on one processor: with one
	// per core the generator's scheduler competes with the daemon for
	// both cores, and the daemon's tail latency then tracks that
	// contention rather than the daemon.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := make([]timing, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				t := &out[i]
				t.cold = seq[i].cold
				t.sent = time.Now()
				t.done, t.err = d.post(seq[i], &buf)
			}
		}()
	}
	wg.Wait()
	return out
}

// tally counts a phase's requests against the run and logs the first
// few failures.
func (r *run) tally(ts []timing) {
	logged := 0
	for _, t := range ts {
		r.attempted++
		if t.err != nil {
			r.failed++
			if logged < 5 {
				r.logf("request failed: %v", t.err)
				logged++
			}
		}
	}
}

// wallOf is a pass's wall time: its first send to its last completion.
func wallOf(ts []timing) float64 {
	first, last := ts[0].sent, ts[0].done
	for _, t := range ts {
		if t.sent.Before(first) {
			first = t.sent
		}
		if t.done.After(last) {
			last = t.done
		}
	}
	return last.Sub(first).Seconds()
}

func rpsOf(ts []timing) float64 { return float64(len(ts)) / wallOf(ts) }

// latencyQuantile returns a pass statistic: the q-quantile, in
// microseconds, of the latency of the pass's successful requests of one
// class.
func latencyQuantile(cold bool, q float64) func([]timing) float64 {
	return func(ts []timing) float64 {
		s := newSamples("", "us")
		for _, t := range ts {
			if t.err == nil && t.cold == cold {
				s.addDur(t.done.Sub(t.sent))
			}
		}
		return s.quantile(q)
	}
}

// passMetrics accumulates per-pass values of the warm-class metrics.
type passMetrics struct{ wall, rps, p50, p90 []float64 }

func (m *passMetrics) add(ts []timing, n int) {
	m.wall = append(m.wall, perPass(ts, n, wallOf)...)
	m.rps = append(m.rps, perPass(ts, n, rpsOf)...)
	m.p50 = append(m.p50, perPass(ts, n, latencyQuantile(false, 0.50))...)
	m.p90 = append(m.p90, perPass(ts, n, latencyQuantile(false, 0.90))...)
}

func (m *passMetrics) set(r *run) {
	r.set("wall_s", median(m.wall))
	r.set("req_per_s", median(m.rps))
	r.set("p50_us", median(m.p50))
	r.set("p90_us", median(m.p90))
}

// setupDaemon starts a daemon and warms its Analysis cache with the
// warm-up requests, checking every response. It returns the daemon and
// the start-to-warm time. coldLat, when set, collects the warm-up
// requests' latencies (cold analyses).
func setupDaemon(r *run, warmup []*request, coldLat *samples) (*daemon, float64, error) {
	start := time.Now()
	d, err := startDaemon(r.cfg)
	if err != nil {
		return nil, 0, err
	}
	ts := d.closedLoop(warmup)
	took := time.Since(start).Seconds()
	for _, t := range ts {
		if t.err != nil {
			r.fail("warm-up: %v", t.err)
			break
		}
		if coldLat != nil {
			coldLat.addDur(t.done.Sub(t.sent))
		}
	}
	return d, took, nil
}

// stopDaemon stops d, checks its clean shutdown, and returns its peak
// RSS (NaN after a failed gate).
func stopDaemon(r *run, d *daemon) float64 {
	mb, err := d.stop()
	if err != nil {
		r.fail("%v", err)
		return math.NaN()
	}
	return mb
}

// setupOnly runs k daemons through set-up alone and returns their peak
// RSS: the baseline retention is measured against.
func setupOnly(r *run, warmup []*request, k int, setup *[]float64) ([]float64, error) {
	var rss []float64
	for i := 0; i < k; i++ {
		d, took, err := setupDaemon(r, warmup, nil)
		if err != nil {
			return nil, err
		}
		*setup = append(*setup, took)
		rss = append(rss, stopDaemon(r, d))
	}
	return rss, nil
}

// retainedKB is the peak RSS a daemon gained per 1000 requests served
// after set-up, against set-up-only daemons.
func retainedKB(peak float64, base []float64, served int) float64 {
	return (peak - median(base)) * 1024 / float64(served) * 1000
}

// servingRun describes one serving workload for runServing.
type servingRun struct {
	o      *oracle
	pool   []*request // the warm request bodies
	warmup []*request // fills a fresh daemon's Analysis cache
	// round returns the requests of one measured round.
	round func() []*request
	// coldName labels the cold class: the warm-up requests when
	// coldIsWarmup is set, the measured cold requests otherwise.
	coldName     string
	coldIsWarmup bool
	// traceInputs are the programs the traced pass times the cold
	// pipeline on.
	traceInputs []source
}

// rounds splits a run's total request count into rounds of about
// roundRequests and returns the round count and the requests per round.
func rounds(total int) (int, int) {
	n := max(1, total/roundRequests)
	return n, total / n
}

// runServing measures the given number of fresh daemons. Each is set up
// (start plus warm-up) and then driven by a closed loop over its round's
// requests. Figures are medians over every round's passes (wall, rates,
// warm latencies) and over rounds (set-up time, cold-class quantiles,
// peak RSS).
func runServing(r *run, w servingRun, nRounds int) error {
	var setup, rss, base []float64
	if r.cfg.trace {
		var err error
		if base, err = setupOnly(r, w.warmup, 1, &setup); err != nil {
			return err
		}
	}
	warm := newSamples("warm", "us")
	cold := newSamples(w.coldName, "ms")
	var pm passMetrics
	var cold50, cold90 []float64
	for round := 0; round < nRounds; round++ {
		seq := w.round()
		roundCold := newSamples(w.coldName, "ms")
		var warmupCold *samples
		if w.coldIsWarmup {
			warmupCold = roundCold
		}
		d, took, err := setupDaemon(r, w.warmup, warmupCold)
		if err != nil {
			return err
		}
		setup = append(setup, took)
		ts := d.closedLoop(seq)
		r.tally(ts)
		for _, t := range ts {
			switch {
			case t.err != nil:
			case t.cold:
				roundCold.addDur(t.done.Sub(t.sent))
			default:
				warm.addDur(t.done.Sub(t.sent))
			}
		}
		pm.add(ts, servingPasses)
		cold.v = append(cold.v, roundCold.v...)
		cold50 = append(cold50, roundCold.quantile(0.50))
		cold90 = append(cold90, roundCold.quantile(0.90))
		if !r.cfg.trace || round < nRounds-1 {
			rss = append(rss, stopDaemon(r, d))
			continue
		}
		n, err := traceServing(r, d, w.o, w.pool, w.traceInputs)
		if err != nil {
			d.kill()
			return err
		}
		peak := stopDaemon(r, d)
		r.set("bpartd.retained_kb_per_1k", retainedKB(peak, base, len(seq)+n))
		rss = append(rss, peak)
	}
	r.logf("%s", warm.summary())
	r.logf("%s", cold.summary())
	pm.set(r)
	r.set("cold_p50_ms", median(cold50))
	r.set("cold_p90_ms", median(cold90))
	r.set("setup_s", median(setup))
	r.set("rss_mb", median(rss))
	return nil
}

// servingInputs builds the oracle, the warm-up requests, and the seeded
// warm pool shared by both serving workloads.
func servingInputs(r *run, rng *rand.Rand) (servingRun, error) {
	o := newOracle(r.cfg.tamper)
	warmup, err := warmupRequests(o)
	if err != nil {
		return servingRun{}, err
	}
	pool, err := warmPool(rng, o)
	if err != nil {
		return servingRun{}, err
	}
	return servingRun{o: o, pool: pool, warmup: warmup}, nil
}

// runWarmPartition drives warm requests only; its cold class is the
// warm-up requests of every set-up.
func runWarmPartition(r *run) error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	w, err := servingInputs(r, rng)
	if err != nil {
		return err
	}
	nRounds, perRound := rounds(warmRequestsPerSecond * r.cfg.seconds)
	w.round = func() []*request {
		seq := make([]*request, perRound)
		for i := range seq {
			seq[i] = w.pool[rng.Intn(len(w.pool))]
		}
		return seq
	}
	w.coldName, w.coldIsWarmup = "warm-up(cold)", true
	w.traceInputs = suiteSources()
	return runServing(r, w, nRounds)
}

// uploadConfigs are the progen shapes the uploads cycle through.
var uploadConfigs = []progen.Config{
	progen.DefaultConfig(), progen.SwitchConfig(), progen.StraightlineConfig(), progen.BranchyConfig(),
}

// upload is one generated program, compiled in set-up.
type upload struct {
	src string
	opt int
	req *request
}

// makeUploads generates n distinct programs (progen seeds 1..n, cycling
// through the configs), compiles each at a rotating opt level, and
// prepares its raw-SBF request. The corpus is the same for every run
// seed, so runs compare the same cold work.
func makeUploads(n int, o *oracle) ([]upload, error) {
	out := make([]upload, n)
	for i := range out {
		p := progen.Generate(int64(i+1), uploadConfigs[i%len(uploadConfigs)])
		opt := (i / len(uploadConfigs)) % 4
		img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: opt})
		if err != nil {
			return nil, fmt.Errorf("compile generated program %d: %w", p.Seed, err)
		}
		sbf, err := img.Marshal()
		if err != nil {
			return nil, err
		}
		req, err := o.request(apiRequest{SBF: sbf}, true)
		if err != nil {
			return nil, err
		}
		out[i] = upload{src: p.Source, opt: opt, req: req}
	}
	return out, nil
}

// runMixedUpload interleaves warm requests with raw-SBF uploads: one in
// every mixedColdEvery requests, at a seeded position, is a program the
// round's daemon has never seen. The seed also orders the uploads.
func runMixedUpload(r *run) error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	w, err := servingInputs(r, rng)
	if err != nil {
		return err
	}
	nRounds, perRound := rounds(mixedRequestsPerSecond * r.cfg.seconds)
	uploads, err := makeUploads(perRound/mixedColdEvery, w.o)
	if err != nil {
		return err
	}
	w.round = func() []*request {
		rng.Shuffle(len(uploads), func(i, j int) { uploads[i], uploads[j] = uploads[j], uploads[i] })
		seq := make([]*request, 0, perRound)
		for _, u := range uploads {
			coldAt := rng.Intn(mixedColdEvery)
			for k := 0; k < mixedColdEvery; k++ {
				if k == coldAt {
					seq = append(seq, u.req)
				} else {
					seq = append(seq, w.pool[rng.Intn(len(w.pool))])
				}
			}
		}
		return seq
	}
	w.coldName = "upload(cold)"
	for _, u := range uploads[:min(probeRequests, len(uploads))] {
		w.traceInputs = append(w.traceInputs, source{u.src, u.opt})
	}
	return runServing(r, w, nRounds)
}

// cacheCounts are one stage cache's counters.
type cacheCounts struct{ hits, misses, evictions float64 }

func countsFromStats(c *core.Caches) map[string]cacheCounts {
	out := map[string]cacheCounts{}
	for name, s := range c.StatsMap() {
		out[name] = cacheCounts{float64(s.Hits), float64(s.Misses), float64(s.Evictions)}
	}
	return out
}

// scrapeCaches reads the daemon's per-stage cache counters from its
// /metrics exposition.
func scrapeCaches(d *daemon) (map[string]cacheCounts, error) {
	resp, err := d.client.Get(d.ops + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	out := map[string]cacheCounts{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var family string
		switch {
		case strings.HasPrefix(line, "binpart_cache_hits_total{"):
			family = "hits"
		case strings.HasPrefix(line, "binpart_cache_misses_total{"):
			family = "misses"
		case strings.HasPrefix(line, "binpart_cache_evictions_total{"):
			family = "evictions"
		default:
			continue
		}
		name, value, ok := parseCacheSeries(line)
		if !ok {
			return nil, fmt.Errorf("scrape /metrics: unparsable line %q", line)
		}
		c := out[name]
		switch family {
		case "hits":
			c.hits = value
		case "misses":
			c.misses = value
		case "evictions":
			c.evictions = value
		}
		out[name] = c
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return out, nil
}

// parseCacheSeries splits `family{cache="name"} value`.
func parseCacheSeries(line string) (string, float64, bool) {
	const label = `{cache="`
	i := strings.Index(line, label)
	j := strings.Index(line, `"} `)
	if i < 0 || j < i {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line[j+3:]), 64)
	return line[i+len(label) : j], v, err == nil
}

// setCacheMetrics sets every stage's hit ratio and the total evictions.
func setCacheMetrics(r *run, counts map[string]cacheCounts) {
	var evictions float64
	for _, stage := range []string{"compile", "sim", "lift", "synth", "analysis"} {
		c := counts[stage]
		ratio := 0.0
		if c.hits+c.misses > 0 {
			ratio = c.hits / (c.hits + c.misses)
		}
		r.set("cache.hit_ratio."+stage, ratio)
		evictions += c.evictions
	}
	r.set("cache.evictions", evictions)
}
