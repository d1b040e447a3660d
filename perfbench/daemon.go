package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scatteradd/internal/exp"
	"scatteradd/internal/obs"
	"scatteradd/internal/server"
)

// The daemon workload drives scatteraddd's server, built with the CLI's
// defaults, over loopback from one process with at most nproc connections.
// Its traffic is mostly repeats of a few small figure specs (cache hits)
// plus a fixed share of fresh-seed small figures (misses that run exp and
// the simulator). Each fresh spec is sent twice at once, so the second
// request coalesces onto the first's simulation.
const (
	// openRate is the open-loop phase's offered load in requests per second.
	openRate = 150.0
	// missEvery: every missEvery-th schedule slot is a fresh-seed miss pair.
	missEvery = 100
	// closedShare of the run's time goes to closed-loop passes (wall_s,
	// refs_per_s); the rest to the open-loop phase (req_p50_ms, req_p99_ms).
	closedShare = 0.25
	// A closed-loop pass is closedMisses fresh specs and closedRepeats
	// repeats, sent back to back by one caller that waits for each reply.
	closedMisses  = 2
	closedRepeats = 18
	// setupRepeats servers are built and warmed per run; setup_s is their
	// median.
	setupRepeats = 9
	// closedCalibEvery: a calibration sample before every so many
	// closed-loop passes. openSegment: the open loop runs in segments of
	// this many slots, with a calibration sample between segments.
	closedCalibEvery = 5
	openSegment      = 200
	// requestTimeout bounds one request; a request that exceeds it fails.
	requestTimeout = 30 * time.Second
)

// repeatSpecs are the few small figure specs most requests repeat, at the
// paper's seeds: warming them is part of set-up, and their simulation cost
// varies with the seed by up to a third, which would swamp setup_s. The
// fresh specs carry the workload seed.
func repeatSpecs() []server.Spec {
	return []server.Spec{
		{Figure: "table1"},
		{Figure: "fig6", Scale: 16},
		{Figure: "fig11", Scale: 16},
		{Figure: "fig12", Scale: 16},
	}
}

// missSpec is the k-th fresh-seed spec: Figure 6 at scale 8 with its
// counters, whose machine/ag_issued total gives the simulated references.
func missSpec(seed uint64, k int) server.Spec {
	return server.Spec{Figure: "fig6", Scale: 8, Seed: mix(seed, 0x1000+uint64(k)) | 1, Stats: true}
}

// figures maps the figures the daemon workload requests to their exp
// generators, to compute the expected response bodies.
var figures = map[string]func(exp.Options) exp.Table{
	"table1": func(exp.Options) exp.Table { return exp.Table1() },
	"fig6":   exp.Fig6,
	"fig11":  exp.Fig11,
	"fig12":  exp.Fig12,
}

// daemon is one in-process server listening on loopback, and its client.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startDaemon builds the server exactly as scatteraddd's flag defaults do
// (telemetry on, workers = NumCPU, queue 64, cache 256, run-jobs 1) and a
// client limited to nproc connections.
func startDaemon() (*daemon, error) {
	srv := server.New(server.Config{
		Queue:        64,
		RunJobs:      1,
		CacheEntries: 256,
		Limits:       server.Limits{MinScale: 1, MaxShards: 64},
		Obs:          obs.New(obs.Config{SlowN: 32}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     runtime.NumCPU(),
				MaxIdleConnsPerHost: runtime.NumCPU(),
				DisableCompression:  true,
			},
		},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the server, closes the listener and connections, and waits
// for the serving goroutine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

// reqRecord is one request's outcome as the client saw it.
type reqRecord struct {
	spec            int // index into the run's spec table
	due, sent, done time.Time
	status          int
	cache           string
	body            [sha256.Size]byte
	err             error
}

// specTable interns the run's specs so records refer to them by index.
type specTable struct {
	specs []server.Spec
	index map[server.Spec]int
}

func (t *specTable) id(sp server.Spec) int {
	if i, ok := t.index[sp]; ok {
		return i
	}
	t.index[sp] = len(t.specs)
	t.specs = append(t.specs, sp)
	return len(t.specs) - 1
}

// post sends the record's spec to /v1/run and records the outcome.
func (d *daemon) post(sp server.Spec, r *reqRecord) {
	body, err := json.Marshal(sp)
	if err != nil {
		r.err = err
		return
	}
	r.sent = time.Now()
	resp, err := d.client.Post(d.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err, r.done = err, time.Now()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status, r.cache, r.err = resp.StatusCode, resp.Header.Get("X-Cache"), err
	r.body = sha256.Sum256(data)
}

// scrape fetches and parses /metrics.
func (d *daemon) scrape() (*obs.Scrape, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return obs.ParseProm(data)
}

// requestFailed reports whether a request counts as failed before its body
// is compared: a transport error or any non-2xx status, 429 included.
func requestFailed(r *reqRecord) bool {
	return r.err != nil || r.status < 200 || r.status > 299
}

// closedPass is one closed-loop pass: its records and host time.
type closedPass struct {
	recs []*reqRecord
	sec  float64
}

func runDaemon(cfg config, o *outcome) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(fmt.Sprintf("daemon-seed%d", cfg.seed))
	}
	specs := &specTable{index: map[server.Spec]int{}}

	// Set-up: the request schedule's specs, the server, and its result
	// cache warmed with the repeat specs as a long-running daemon's is,
	// several times; the last server serves the run.
	var setups, gens []float64
	// Calibration samples of each phase. A set-up or closed-loop pass is
	// normalized by the samples on either side of it, the open loop by
	// the samples just before and after it.
	var setupCal, closedCal, openCal []float64
	var d *daemon
	var repeats []int
	var all []*reqRecord
	for i := 0; i < setupRepeats; i++ {
		setupCal = append(setupCal, o.host.sample())
		if d != nil {
			if err := d.stop(); err != nil {
				o.problem("daemon stop: %v", err)
			}
		}
		// Collect the previous server's garbage outside the timed set-up,
		// as testing.B does before a benchmark, so a set-up does not pay
		// for its predecessor.
		runtime.GC()
		var err error
		setups = append(setups, rec.timed("setup", -1, func(id int) {
			gens = append(gens, rec.timed("workload.gen", id, func(int) {
				repeats = repeats[:0]
				for _, sp := range repeatSpecs() {
					repeats = append(repeats, specs.id(sp))
				}
			}))
			rec.timed("server.new", id, func(int) { d, err = startDaemon() })
			if err != nil {
				return
			}
			rec.timed("server.warm", id, func(int) {
				for _, sid := range repeats {
					r := &reqRecord{spec: sid}
					d.post(specs.specs[sid], r)
					all = append(all, r)
				}
			})
		}))
		if err != nil {
			o.problem("daemon: %v", err)
			return
		}
	}
	defer func() {
		if err := d.stop(); err != nil {
			o.problem("daemon stop: %v", err)
		}
	}()
	setupCal = append(setupCal, o.host.sample())
	o.setNormalized("setup_s", median(setups), median(scaleBy(setups, bracketFactors(len(setups), setupCal, 1), false)))
	fmt.Printf("daemon: set-up seconds %s\n", formatSeconds(setups))
	runtime.GC()
	rng := rand.New(rand.NewSource(int64(mix(cfg.seed, 0xD1))))
	misses := 0
	fresh := func() int {
		misses++
		return specs.id(missSpec(cfg.seed, misses))
	}

	// Closed loop: passes of a fixed request list from one caller.
	// Traced runs trace every other pass to measure the tracing overhead.
	var passes []closedPass
	var plain, traced, unattributed []float64
	start := time.Now()
	for p := 0; p < minPasses || elapsed(start) < closedShare*cfg.seconds; p++ {
		if p%closedCalibEvery == 0 {
			closedCal = append(closedCal, o.host.sample())
		}
		var prec *recorder
		if p%2 == 1 {
			prec = rec
		}
		list := make([]*reqRecord, 0, closedMisses+closedRepeats)
		for i := 0; i < closedMisses; i++ {
			list = append(list, &reqRecord{spec: fresh()})
		}
		for i := 0; i < closedRepeats; i++ {
			list = append(list, &reqRecord{spec: repeats[i%len(repeats)]})
		}
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		from := prec.mark()
		sec := prec.timed("measure", -1, func(id int) { d.closedLoop(specs, list, prec, id) })
		passes = append(passes, closedPass{recs: list, sec: sec})
		all = append(all, list...)
		if prec == nil {
			plain = append(plain, sec)
		} else {
			traced = append(traced, sec)
			unattributed = append(unattributed, prec.selfByName(from)["measure"]/sec)
		}
	}

	closedCal = append(closedCal, o.host.sample())

	// Open loop: a fixed-rate schedule, each request timed from its due time,
	// in segments with a calibration sample between them, taken while no
	// request is in flight. The traced run brackets it with /metrics
	// scrapes.
	var before *obs.Scrape
	if cfg.trace {
		var err error
		if before, err = d.scrape(); err != nil {
			o.problem("%v", err)
			return
		}
	}
	var open []*reqRecord
	var segLens []int
	openCal = append(openCal, o.host.sample())
	for slots, done := int(openRate*(1-closedShare)*cfg.seconds), 0; done < slots; done += openSegment {
		// The segments run on nproc threads, as scatteraddd does, so a
		// miss's simulation and the hits arriving meanwhile are served in
		// parallel; on one thread the hits would wait for the scheduler to
		// preempt the simulation, every 10 ms of wall time, whatever the
		// host's speed. The calibration samples stay on one thread.
		runtime.GOMAXPROCS(runtime.NumCPU())
		seg := d.openLoop(specs, repeats, fresh, rng, min(openSegment, slots-done), rec)
		runtime.GOMAXPROCS(1)
		open = append(open, seg...)
		segLens = append(segLens, len(seg))
		openCal = append(openCal, o.host.sample())
	}
	all = append(all, open...)

	o.metrics["peak_rss_mb"] = peakRSSMB()
	refs := verifyDaemon(specs, all, o)

	var walls, rates []float64
	for _, p := range passes {
		var n uint64
		for _, r := range p.recs {
			if r.cache == server.CacheMiss {
				n += refs[r.spec]
			}
		}
		walls = append(walls, p.sec)
		rates = append(rates, float64(n)/p.sec)
	}
	fc := bracketFactors(len(walls), closedCal, closedCalibEvery)
	o.setNormalized("wall_s", median(walls), median(scaleBy(walls, fc, false)))
	o.setNormalized("refs_per_s", median(rates), median(scaleBy(rates, fc, true)))
	lat := make([]float64, 0, len(open))
	var fo []float64 // each request's segment's factor
	for k, f := range bracketFactors(len(segLens), openCal, 1) {
		for range segLens[k] {
			fo = append(fo, f)
		}
	}
	for _, r := range open {
		ms := math.Inf(1) // a failed request misses any latency limit
		if !requestFailed(r) {
			ms = 1e3 * r.done.Sub(r.due).Seconds()
		}
		lat = append(lat, ms)
	}
	latN := scaleBy(lat, fo, false)
	o.setNormalized("req_p50_ms", quantile(lat, 0.5), quantile(latN, 0.5))
	o.setNormalized("req_p99_ms", quantile(lat, 0.99), quantile(latN, 0.99))
	fmt.Printf("daemon: %d open-loop requests at %g req/s (p99 over %d samples), %d closed-loop passes\n",
		len(open), openRate, len(lat), len(passes))

	if !cfg.trace {
		return
	}
	o.metrics["workload.gen_s"] = median(gens)
	traceReconcile(traced, plain, unattributed, o)
	daemonLayers(d, before, open, o)
	if err := rec.write(cfg.traceOut); err != nil {
		o.problem("%v", err)
	}
}

// closedLoop sends list in order, each request as soon as the previous
// one completes.
func (d *daemon) closedLoop(specs *specTable, list []*reqRecord, rec *recorder, parent int) {
	for _, r := range list {
		id := rec.begin("server.request", parent, 0)
		r.due = time.Now()
		d.post(specs.specs[r.spec], r)
		rec.end(id)
	}
}

// openLoop sends a fixed-rate schedule of n slots: every missEvery-th slot
// a fresh spec sent twice at once, the other slots a random repeat spec.
// Requests wait for one of the client's nproc connections, and that wait
// counts in their latency. It returns when every request has completed.
func (d *daemon) openLoop(specs *specTable, repeats []int, fresh func() int, rng *rand.Rand, n int, rec *recorder) []*reqRecord {
	var recs []*reqRecord
	var wg sync.WaitGroup
	phase := rec.begin("open_loop", -1, 0)
	start := time.Now()
	for slot := 0; slot < n; slot++ {
		due := start.Add(time.Duration(float64(slot) / openRate * float64(time.Second)))
		batch := []*reqRecord{{spec: repeats[rng.Intn(len(repeats))], due: due}}
		if slot%missEvery == 0 {
			id := fresh()
			batch = []*reqRecord{{spec: id, due: due}, {spec: id, due: due}}
		}
		time.Sleep(time.Until(due))
		for _, r := range batch {
			recs = append(recs, r)
			lane := 1 + len(recs)%64
			sp := specs.specs[r.spec]
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := rec.begin("server.request", phase, lane)
				d.post(sp, r)
				rec.end(id)
			}()
		}
	}
	wg.Wait()
	rec.end(phase)
	return recs
}

// verifyDaemon compares every response body with the same spec's exp
// output, computed here after the timed phases so it does not compete with
// the server for the CPUs. It returns the simulated references behind each
// spec (machine/ag_issued of its counters).
func verifyDaemon(specs *specTable, recs []*reqRecord, o *outcome) []uint64 {
	want := make([][sha256.Size]byte, len(specs.specs))
	refs := make([]uint64, len(specs.specs))
	errs := make([]error, len(specs.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs.specs) {
					return
				}
				want[i], refs[i], errs[i] = expected(specs.specs[i])
			}
		}()
	}
	wg.Wait()
	for _, r := range recs {
		o.attempted++
		switch {
		case r.err != nil:
			o.fail("daemon %+v: %v", specs.specs[r.spec], r.err)
		case requestFailed(r):
			o.fail("daemon %+v: HTTP %d", specs.specs[r.spec], r.status)
		case errs[r.spec] != nil:
			o.fail("daemon %+v: reference: %v", specs.specs[r.spec], errs[r.spec])
		case r.body != want[r.spec]:
			o.fail("daemon %+v: body differs from exp output", specs.specs[r.spec])
		}
	}
	return refs
}

// expected renders a spec's body as the server would, from exp directly.
func expected(sp server.Spec) (sum [sha256.Size]byte, refs uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp panicked: %v", p)
		}
	}()
	req, err := sp.Validate(server.Limits{MinScale: 1, MaxShards: 64})
	if err != nil {
		return sum, 0, err
	}
	opts := req.Opts
	opts.Jobs = 1
	t := figures[req.Figure](opts)
	body, _ := req.Render(t)
	refs, _ = t.Counters.Collapse().Get("machine/ag_issued")
	return sha256.Sum256(body), refs, nil
}

// formatBound renders a bucket bound as the "le" label obs writes.
func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// daemonLayers derives the server's per-stage metrics from the /metrics
// delta over the open-loop phase, reconciles them with the client's view
// (server.CheckScrape, as saload -scrape does), and adds the client-side
// cache, coalescing, refusal and lateness figures.
func daemonLayers(d *daemon, before *obs.Scrape, recs []*reqRecord, o *outcome) {
	rep := server.LoadReport{Status: map[string]int{}, Cache: map[string]int{}}
	var late, clientSec []float64
	for _, r := range recs {
		rep.Sent++
		late = append(late, 1e3*r.sent.Sub(r.due).Seconds())
		switch {
		case r.err != nil:
			rep.TransportErrors++
			continue
		case r.status == http.StatusTooManyRequests:
			rep.Rejected429++
		case r.status >= 500:
			rep.Errors5xx++
		case r.status >= 200 && r.status <= 299:
			rep.OK++
			rep.Cache[r.cache]++
		}
		clientSec = append(clientSec, r.done.Sub(r.sent).Seconds())
	}
	// The server accounts a request just after writing its response, so
	// the last requests may lag the client: retry the scrape briefly.
	var after *obs.Scrape
	var problems []string
	for attempt := 0; attempt < 30; attempt++ {
		var err error
		if after, err = d.scrape(); err != nil {
			o.problem("%v", err)
			return
		}
		if problems = server.CheckScrape(before, after, rep); len(problems) == 0 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	for _, p := range problems {
		o.problem("daemon telemetry does not reconcile with the client: %s", p)
	}
	ep := map[string]string{"endpoint": "/v1/run"}
	for _, st := range []string{"quota", "queue", "cache", "run", "encode"} {
		m := map[string]string{"endpoint": "/v1/run", "stage": st}
		count := delta(before, after, obs.MetricStageDuration+"_count", m)
		sum := delta(before, after, obs.MetricStageDuration+"_sum", m)
		if count > 0 {
			o.metrics["server.stage_"+st+"_ms_mean"] = 1e3 * sum / count
		}
		o.metrics["server.stage_"+st+"_ms_p99"] = 1e3 * histQuantile(before, after, obs.MetricStageDuration, m, 0.99)
	}
	serverSec := delta(before, after, obs.MetricDuration+"_sum", ep)
	var clientTotal float64
	for _, s := range clientSec {
		clientTotal += s
	}
	if n := float64(len(clientSec)); n > 0 {
		o.metrics["loadgen.transport_ms_mean"] = 1e3 * (clientTotal - serverSec) / n
		if clientTotal < serverSec {
			o.problem("server time %.3fs exceeds client-observed time %.3fs", serverSec, clientTotal)
		}
	}
	o.metrics["server.cache_hit_ratio"] = ratio(uint64(rep.Cache[server.CacheHit]), uint64(rep.OK))
	o.metrics["server.coalesced"] = float64(rep.Cache[server.CacheCoalesced])
	o.metrics["server.rejected_429"] = float64(rep.Rejected429)
	o.metrics["loadgen.late_p99_ms"] = quantile(late, 0.99)
}

func delta(before, after *obs.Scrape, name string, match map[string]string) float64 {
	return after.Sum(name, match) - before.Sum(name, match)
}

// histQuantile estimates a quantile of a Prometheus histogram's delta
// between two scrapes, interpolating linearly inside the bucket.
func histQuantile(before, after *obs.Scrape, name string, match map[string]string, q float64) float64 {
	total := delta(before, after, name+"_count", match)
	if total <= 0 {
		return 0
	}
	target := q * total
	prevBound, prevCum := 0.0, 0.0
	for _, bound := range obs.DurationBuckets {
		m := map[string]string{"le": formatBound(bound)}
		for k, v := range match {
			m[k] = v
		}
		cum := delta(before, after, name+"_bucket", m)
		if cum >= target {
			if cum == prevCum {
				return bound
			}
			return prevBound + (bound-prevBound)*(target-prevCum)/(cum-prevCum)
		}
		prevBound, prevCum = bound, cum
	}
	return obs.DurationBuckets[len(obs.DurationBuckets)-1]
}
