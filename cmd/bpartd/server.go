package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/freelist"
	"binpart/internal/mcc"
	"binpart/internal/obs"
	"binpart/internal/obs/hist"
	"binpart/internal/platform"
)

// apiRequest is the body of both /v1/partition and /v1/sweep. Either a
// benchmark name (compiled through the compile cache) or a raw SBF
// image (base64 in JSON) names the binary; the embedded core.Request's
// fields override the daemon's defaults when present, and its sweep mode
// picks the route.
type apiRequest struct {
	Bench     string `json:"bench,omitempty"`
	Opt       int    `json:"opt,omitempty"`
	SBF       []byte `json:"sbf,omitempty"`
	Structure bool   `json:"structure,omitempty"`
	core.Request
}

// metricsJSON is the priced summary embedded in responses.
type metricsJSON struct {
	AppSpeedup    float64 `json:"app_speedup"`
	KernelSpeedup float64 `json:"kernel_speedup"`
	EnergySavings float64 `json:"energy_savings"`
	AreaGates     int     `json:"area_gates"`
}

func metricsFrom(m platform.Metrics) metricsJSON {
	return metricsJSON{
		AppSpeedup:    m.AppSpeedup,
		KernelSpeedup: m.KernelSpeedup,
		EnergySavings: m.EnergySavings,
		AreaGates:     m.AreaGates,
	}
}

// partitionResponse is /v1/partition's body. Report is byte-identical
// to the bparts CLI's output for the same inputs.
type partitionResponse struct {
	Report    string      `json:"report"`
	Metrics   metricsJSON `json:"metrics"`
	Selected  int         `json:"selected"`
	SWCycles  uint64      `json:"sw_cycles"`
	ExitCode  int32       `json:"exit_code"`
	ElapsedUS int64       `json:"elapsed_us"`
}

// sweepChunk is one ndjson line of /v1/sweep's stream: the header line
// carries Header, each point line carries Label/Text/Metrics, and the
// final line carries Done/Points. Concatenating Header and every Text
// reproduces the bparts sweep output byte for byte.
type sweepChunk struct {
	Header  string       `json:"header,omitempty"`
	Label   string       `json:"label,omitempty"`
	Text    string       `json:"text,omitempty"`
	Metrics *metricsJSON `json:"metrics,omitempty"`
	Done    bool         `json:"done,omitempty"`
	Points  int          `json:"points,omitempty"`
}

type daemonConfig struct {
	Caches   *core.Caches
	Rec      *obs.Recorder
	Queue    int
	Inflight int
	Deadline time.Duration
}

// daemon is the serving core: admission, the two API handlers, and the
// counters /metrics exposes.
type daemon struct {
	caches   *core.Caches
	rec      *obs.Recorder
	deadline time.Duration

	// queue bounds everything admitted (waiting + executing); slots
	// bounds execution and carries worker ids for span attribution.
	queue chan struct{}
	slots chan int

	draining atomic.Bool

	served                                   atomic.Uint64
	codes                                    [2][len(routeCodes)]atomic.Uint64 // per route, per routeCodes entry
	rejectQueue, rejectDrain, rejectDeadline atomic.Uint64
	lat                                      [2]hist.Histogram

	// gate, when set by a test, runs while the request holds its
	// execution slot — how the e2e tests pin a request in flight.
	gate func()
}

const (
	routePartition = 0
	routeSweep     = 1
)

var routeNames = [2]string{"partition", "sweep"}

// routeCodes are the response codes the API routes answer with (fail and
// admit produce every one but 200). Each route counts every one of them
// from zero, so each bpartd family is present from the first /metrics
// scrape, before any request has completed.
var routeCodes = [...]int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
	http.StatusTooManyRequests, http.StatusServiceUnavailable}

// count tallies an answer on route with code, one of routeCodes.
func (d *daemon) count(route, code int) {
	d.codes[route][slices.Index(routeCodes[:], code)].Add(1)
}

func newDaemon(cfg daemonConfig) *daemon {
	if cfg.Queue < 1 {
		cfg.Queue = 1
	}
	if cfg.Inflight < 1 {
		cfg.Inflight = 1
	}
	if cfg.Inflight > cfg.Queue {
		cfg.Inflight = cfg.Queue
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	d := &daemon{
		caches:   cfg.Caches,
		rec:      cfg.Rec,
		deadline: cfg.Deadline,
		queue:    make(chan struct{}, cfg.Queue),
		slots:    make(chan int, cfg.Inflight),
	}
	for i := 0; i < cfg.Inflight; i++ {
		d.slots <- i
	}
	return d
}

// Mux is the serving handler: the two API routes plus health endpoints
// (also mounted on the ops listener, so probes work against either).
func (d *daemon) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/partition", func(w http.ResponseWriter, r *http.Request) { d.serve(w, r, routePartition) })
	mux.HandleFunc("/v1/sweep", func(w http.ResponseWriter, r *http.Request) { d.serve(w, r, routeSweep) })
	mux.HandleFunc("/healthz", d.handleHealthz)
	mux.HandleFunc("/readyz", d.handleReadyz)
	return mux
}

// SetDraining flips the daemon into shutdown mode: /readyz turns 503
// and new API requests are refused while in-flight ones drain.
func (d *daemon) SetDraining() { d.draining.Store(true) }

// Served is the count of requests that completed with a 200.
func (d *daemon) Served() uint64 { return d.served.Load() }

func (d *daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (d *daemon) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if d.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// admit runs the admission pipeline: draining check, bounded queue
// (429 + Retry-After when full), then an execution slot. The wait for a
// slot is bounded by what is left of the request deadline, counted from
// start, and by the client's context; the timer for it is created only
// when no slot is free. On success the caller owns slot worker and must
// hand it back with release.
func (d *daemon) admit(w http.ResponseWriter, r *http.Request, route int, start time.Time) (worker int, ok bool) {
	if d.draining.Load() {
		d.rejectDrain.Add(1)
		d.count(route, http.StatusServiceUnavailable)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return 0, false
	}
	select {
	case d.queue <- struct{}{}:
	default:
		d.rejectQueue.Add(1)
		d.count(route, http.StatusTooManyRequests)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return 0, false
	}
	wkr, ok := d.slot(r, start)
	if !ok {
		<-d.queue
		d.rejectDeadline.Add(1)
		d.count(route, http.StatusServiceUnavailable)
		http.Error(w, "deadline waiting for a slot", http.StatusServiceUnavailable)
		return 0, false
	}
	return wkr, true
}

// release hands back an admitted request's slot and queue place.
func (d *daemon) release(worker int) {
	d.slots <- worker
	<-d.queue
}

// slot takes a free execution slot, waiting at most until the request
// deadline (start + d.deadline) or until the client goes away.
func (d *daemon) slot(r *http.Request, start time.Time) (int, bool) {
	select {
	case wkr := <-d.slots:
		return wkr, true
	default:
	}
	timer := time.NewTimer(d.deadline - time.Since(start))
	defer timer.Stop()
	select {
	case wkr := <-d.slots:
		return wkr, true
	case <-timer.C:
		return 0, false
	case <-r.Context().Done():
		return 0, false
	}
}

// overDeadline reports whether the request has used up its deadline.
func (d *daemon) overDeadline(start time.Time) bool {
	return time.Since(start) > d.deadline
}

// maxBodyBytes bounds a request body, SBF upload included.
const maxBodyBytes = 16 << 20

// bufs keeps the buffers a request reads its body into and encodes its
// response in. A buffer grown past maxPooledBuf (a large SBF upload) is
// dropped rather than kept.
var bufs freelist.List[bytes.Buffer]

const maxPooledBuf = 64 << 10

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		buf.Reset()
		bufs.Put(buf)
	}
}

// fail answers a request the daemon cannot serve: 413 naming the limit
// for a body over maxBodyBytes, 400 with the error for anything else.
func (d *daemon) fail(w http.ResponseWriter, route int, err error) {
	code, msg := http.StatusBadRequest, err.Error()
	if errors.As(err, new(*http.MaxBytesError)) {
		code, msg = http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over the %d MiB limit", maxBodyBytes>>20)
	}
	d.count(route, code)
	http.Error(w, msg, code)
}

// decode parses and validates the request body against the daemon's
// default options. The body is read into buf, which the caller owns and
// may reuse once decode returns: nothing decoded aliases it. The request
// is usable only when the error is nil.
func (d *daemon) decode(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) (*apiRequest, core.Options, error) {
	var req apiRequest
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return nil, core.Options{}, err
	}
	if err := json.Unmarshal(buf.Bytes(), &req); err != nil {
		return nil, core.Options{}, fmt.Errorf("bad request body: %w", err)
	}
	if req.Bench == "" && len(req.SBF) == 0 {
		return nil, core.Options{}, fmt.Errorf("request needs \"bench\" or \"sbf\"")
	}
	if req.Opt < 0 || req.Opt > mcc.MaxOptLevel {
		return nil, core.Options{}, fmt.Errorf("opt %d out of range 0-%d", req.Opt, mcc.MaxOptLevel)
	}

	opts, err := req.Options(core.DefaultOptions())
	return &req, opts, err
}

// image resolves the request's binary: a raw SBF image, or a benchmark
// compiled by core.Compile — the experiment runner's compile stage, whose
// span is what keeps the daemon's trace reconciling against its cache
// counters.
func (d *daemon) image(req *apiRequest, sc *obs.Scope) (*binimg.Image, error) {
	if len(req.SBF) > 0 {
		return binimg.Unmarshal(req.SBF)
	}
	b, ok := bench.ByName(req.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", req.Bench)
	}
	return core.Compile(b, req.Opt, d.caches, sc)
}

// call is an admitted, decoded request whose binary is resolved, as both
// routes price it. Its scope and job span travel beside it, not in it,
// so that they stay off the heap.
type call struct {
	req   *apiRequest
	opts  core.Options
	img   *binimg.Image
	buf   *bytes.Buffer // held the body; free for the response
	start time.Time
}

// serve is both routes' prologue and epilogue: admit, decode, and resolve
// the binary under the request's job span, then have the route's own
// function price it, end the span and answer. serve answers every request
// it refuses on the way and counts each one served.
func (d *daemon) serve(w http.ResponseWriter, r *http.Request, route int) {
	start := time.Now()
	worker, ok := d.admit(w, r, route, start)
	if !ok {
		return
	}
	defer d.release(worker)
	if d.gate != nil {
		d.gate()
	}

	buf := bufs.Get()
	defer putBuf(buf)
	req, opts, err := d.decode(w, r, buf)
	if err == nil && (req.Sweep != "") != (route == routeSweep) {
		err = errors.New(`/v1/sweep takes a "sweep" of devices or clocks; /v1/partition takes none`)
	}
	if err != nil {
		d.fail(w, route, err)
		return
	}
	if d.overDeadline(start) {
		d.count(route, http.StatusServiceUnavailable)
		http.Error(w, "deadline", http.StatusServiceUnavailable)
		return
	}
	name := req.Bench // labels the request's spans
	if name == "" {
		name = "sbf"
	}
	sc := d.rec.Scope(name, req.Opt, worker)
	sp := sc.Start(obs.StageJob)
	c := call{req: req, opts: opts, buf: buf, start: start}
	if c.img, err = d.image(req, sc); err != nil {
		sp.End()
		d.fail(w, route, err)
		return
	}
	served := false
	switch route {
	case routePartition:
		served = d.partition(w, c, sc, &sp)
	case routeSweep:
		served = d.sweep(w, r, c, sc, &sp)
	}
	if served {
		d.count(route, http.StatusOK)
		d.served.Add(1)
		d.lat[route].Record(time.Since(start))
	}
}

// partition answers /v1/partition with the priced report.
func (d *daemon) partition(w http.ResponseWriter, c call, sc *obs.Scope, sp *obs.Span) bool {
	rep, err := core.RunScoped(c.img, c.opts, d.caches, sc)
	sp.End()
	if err != nil {
		d.fail(w, routePartition, err)
		return false
	}

	selected := 0
	for _, reg := range rep.Regions {
		if reg.Selected {
			selected++
		}
	}
	buf := c.buf
	buf.Reset()
	resp := partitionResponse{
		Report:    string(core.AppendReport(buf.AvailableBuffer(), rep, c.req.Structure)),
		Metrics:   metricsFrom(rep.Metrics),
		Selected:  selected,
		SWCycles:  rep.SWCycles,
		ExitCode:  rep.ExitCode,
		ElapsedUS: time.Since(c.start).Microseconds(),
	}
	json.NewEncoder(buf).Encode(resp) //nolint:errcheck // fails only on a non-finite metric, leaving buf empty
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes()) //nolint:errcheck // client went away
	return true
}

// sweep answers /v1/sweep with an ndjson stream: header chunk, one chunk
// per priced point, done trailer. Each chunk is flushed so clients see
// points as they arrive.
func (d *daemon) sweep(w http.ResponseWriter, r *http.Request, c call, sc *obs.Scope, sp *obs.Span) bool {
	a, err := core.AnalyzeScoped(c.img, c.opts, d.caches, sc)
	if err != nil {
		sp.End()
		d.fail(w, routeSweep, err)
		return false
	}
	header, pts := core.Sweep(a, c.opts, c.req.Sweep, c.req.Clocks, sc)
	sp.End()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	// A writer that cannot flush sends the stream when the handler returns.
	flush := http.NewResponseController(w).Flush
	enc.Encode(sweepChunk{Header: header}) //nolint:errcheck // stream errors surface on later writes
	flush()
	for _, pt := range pts {
		if r.Context().Err() != nil || d.overDeadline(c.start) {
			return false // client gone or out of time: stop streaming
		}
		m := metricsFrom(pt.Rep.Metrics)
		if err := enc.Encode(sweepChunk{Label: pt.Label, Text: pt.Text, Metrics: &m}); err != nil {
			return false
		}
		flush()
	}
	enc.Encode(sweepChunk{Done: true, Points: len(pts)}) //nolint:errcheck // trailer is best-effort
	flush()
	return true
}

// WriteMetrics appends the daemon's serving families to the shared
// /metrics exposition (serveOps' extra).
func (d *daemon) WriteMetrics(w io.Writer) {
	p := hist.NewProm(w)
	for route, name := range routeNames {
		for i, code := range routeCodes {
			p.Counter("bpartd_requests_total",
				hist.Labels(hist.Label("route", name), hist.Label("code", fmt.Sprint(code))), float64(d.codes[route][i].Load()))
		}
	}
	p.Counter("bpartd_rejected_total", hist.Label("reason", "queue"), float64(d.rejectQueue.Load()))
	p.Counter("bpartd_rejected_total", hist.Label("reason", "draining"), float64(d.rejectDrain.Load()))
	p.Counter("bpartd_rejected_total", hist.Label("reason", "deadline"), float64(d.rejectDeadline.Load()))
	p.Gauge("bpartd_queue_depth", "", float64(len(d.queue)))
	p.Gauge("bpartd_inflight", "", float64(cap(d.slots)-len(d.slots)))
	for route, name := range routeNames {
		p.Summary("bpartd_request_latency_seconds", hist.Label("route", name), d.lat[route].Snapshot())
	}
}
