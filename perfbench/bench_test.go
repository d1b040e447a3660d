package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"scatteradd/internal/apps"
	"scatteradd/internal/machine"
	"scatteradd/internal/server"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks every metric name and that BENCHMARK.json lists
// exactly the metrics the program prints, with the same units.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
}

// TestCorruptedResultFails corrupts a simulated histogram before its
// verification: the call must count as attempted and failed, and the run as
// incorrect.
func TestCorruptedResultFails(t *testing.T) {
	h := apps.NewHistogram(1024, 64, 7)
	m := machine.New(machine.DefaultConfig())
	call := simCall{
		layer: "apps",
		run:   func() counts { return nodeCounts(h.RunHW(m), m) },
		verify: func() error {
			m.FlushCaches()
			bins := m.Store().ReadI64Slice(h.BinBase, h.Range)
			bins[3]++
			m.Store().WriteI64Slice(h.BinBase, bins)
			return h.Verify(m)
		},
	}
	o := newOutcome()
	if _, ok := execCall(call, nil, -1, o); ok {
		t.Fatal("corrupted result passed verification")
	}
	res := o.result(false)
	if res.Attempted != 1 || res.Failed != 1 || res.Correct {
		t.Fatalf("corrupted result: attempted %d failed %d correct %v, want 1 1 false", res.Attempted, res.Failed, res.Correct)
	}
}

// TestPanickingCallFails turns a panic inside the simulator into a failed
// operation rather than a crash.
func TestPanickingCallFails(t *testing.T) {
	o := newOutcome()
	call := simCall{layer: "apps", run: func() counts { panic("boom") }, verify: func() error { return nil }}
	if _, ok := execCall(call, nil, -1, o); ok || o.failed != 1 || o.attempted != 1 {
		t.Fatalf("panic: ok %v failed %d attempted %d", ok, o.failed, o.attempted)
	}
}

// TestRefusedRequestFails: a 429, any other non-2xx, a transport error and
// a body that differs from exp's output each count as a failed request.
func TestRefusedRequestFails(t *testing.T) {
	specs := &specTable{index: map[server.Spec]int{}}
	id := specs.id(server.Spec{Figure: "table1"})
	want, _, err := expected(specs.specs[id])
	if err != nil {
		t.Fatal(err)
	}
	recs := []*reqRecord{
		{spec: id, status: http.StatusOK, body: want},
		{spec: id, status: http.StatusTooManyRequests, body: want},
		{spec: id, status: http.StatusServiceUnavailable},
		{spec: id, err: errors.New("connection refused")},
		{spec: id, status: http.StatusOK},
	}
	o := newOutcome()
	verifyDaemon(specs, recs, o)
	if o.attempted != 5 || o.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 5 4 (problems %v)", o.attempted, o.failed, o.problems)
	}
	if !requestFailed(recs[1]) {
		t.Error("429 not counted as a failed request")
	}
}

// TestOutputParses checks the last output line is one JSON object with
// exactly the contract's keys and every end-to-end metric.
func TestOutputParses(t *testing.T) {
	o := newOutcome()
	o.attempted = 3
	for i, d := range endToEnd {
		o.metrics[d.name] = float64(i) + 1.5
	}
	var buf bytes.Buffer
	cfg := config{workload: "node-hot", seed: defaultSeed, seconds: 1}
	if err := writeResult(&buf, cfg, o, o.result(false)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line does not parse: %v", err)
	}
	if len(got) != 4 {
		t.Errorf("result keys %v, want correct, attempted, failed, metrics", got)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 || res.Failed != 0 {
		t.Errorf("result %+v", res)
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("metric %s: %+v", d.name, m)
		}
	}
}

// TestMissingMetricIsAProblem: an end-to-end metric a workload did not
// measure makes the run incorrect instead of reading 0.
func TestMissingMetricIsAProblem(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	if res := o.result(false); res.Correct {
		t.Fatal("run without metrics reported correct")
	}
}

// TestSelfTimes: a span's self time excludes the union of its children,
// so overlapping children are not subtracted twice.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "measure", start: 0, end: 100 * ms, parent: -1},
		{name: "a", start: 10 * ms, end: 50 * ms, parent: 0},
		{name: "b", start: 40 * ms, end: 70 * ms, parent: 0},
	}
	self := selfTimes(spans, 0)
	if got := self["measure"]; !within(got, 0.040, 1e-9) {
		t.Errorf("measure self = %v, want 0.040", got)
	}
	if self["a"] != 0.040 || self["b"] != 0.030 {
		t.Errorf("leaf self times %v", self)
	}
}

// TestFingerprintNamesLayer: a moved count is reported with its layer.
func TestFingerprintNamesLayer(t *testing.T) {
	diff := diffCounts(counts{"dram.line_reads": 5, "cache.hits": 1}, counts{"dram.line_reads": 6, "cache.hits": 1})
	if !strings.Contains(diff, "layer dram") || strings.Contains(diff, "cache") {
		t.Errorf("diff %q", diff)
	}
	var fp map[string]counts
	if err := json.Unmarshal(fingerprintJSON, &fp); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"node-hot", "node-cold", "fabric"} {
		if len(fp[w]) == 0 {
			t.Errorf("fingerprint.json has no counts for %s", w)
		}
	}
}

// TestNormalize: on a host running at half the reference speed, times halve
// and rates double; counts, ratios and memory stay as measured.
func TestNormalize(t *testing.T) {
	o := newOutcome()
	o.host.samples = []float64{2 * calibRefSeconds}
	o.metrics["wall_s"] = 4
	o.metrics["refs_per_s"] = 100
	o.metrics["peak_rss_mb"] = 50
	o.metrics["cache.hits"] = 7
	o.metrics["saunit.ns_per_tick"] = 300
	o.normalize()
	want := map[string]float64{"wall_s": 2, "refs_per_s": 200, "peak_rss_mb": 50, "cache.hits": 7,
		"saunit.ns_per_tick": 150, "host.calib_ms": 1e3 * 2 * calibRefSeconds}
	for k, v := range want {
		if !within(o.metrics[k], v, 1e-12) {
			t.Errorf("%s = %v, want %v", k, o.metrics[k], v)
		}
	}
	if o.raw["wall_s"] != 4 {
		t.Errorf("raw wall_s = %v, want the measured 4", o.raw["wall_s"])
	}
}

// TestPassNormalization: each pass is normalized by the calibration
// samples on either side of it, so a host that slows to half speed half-way
// through a run leaves the normalized passes equal.
func TestPassNormalization(t *testing.T) {
	c := calibRefSeconds
	ps := passStats{
		setup: []float64{0.1, 0.1, 0.2, 0.2},
		wall:  []float64{1, 1, 2, 2},
		total: []float64{1.1, 1.1, 2.2, 2.2},
		rate:  []float64{100, 100, 50, 50},
		calib: []float64{c, c, c, 2 * c, 2 * c},
	}
	// Pass 2 straddles the slow-down: its samples average 1.5c.
	ps.wall[2], ps.setup[2], ps.total[2], ps.rate[2] = 1.5, 0.15, 1.65, 200.0/3
	o := newOutcome()
	passMetrics(ps, o)
	want := map[string]float64{"wall_s": 1, "setup_s": 0.1, "refs_per_s": 100, "req_p50_ms": 1100, "req_p99_ms": 1100}
	for k, v := range want {
		if !within(o.metrics[k], v, 1e-12) {
			t.Errorf("%s = %v, want %v", k, o.metrics[k], v)
		}
	}
	if !within(o.raw["wall_s"], 1.25, 1e-12) {
		t.Errorf("raw wall_s = %v, want the measured median 1.25", o.raw["wall_s"])
	}
	o.normalize()
	if !within(o.metrics["wall_s"], 1, 1e-12) {
		t.Errorf("normalize rescaled a pass-normalized metric: wall_s = %v", o.metrics["wall_s"])
	}
}
