// Command perfbench is the repository's benchmark. It runs one named workload
// through the simulator's public entry points (apps, machine, multinode and
// the server handler) for a fixed time, verifies every result, and prints
// each metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 1.52, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With -trace 1 they are the per-layer metrics: spans recorded
// around every call into a layer, component rigs, exact simulated counts and
// the daemon's /metrics stage histograms. README.md lists every metric, the
// layer it belongs to, and the end-to-end metric it should move.
//
// Run it from the root of a checkout through the launcher, which builds it:
//
//	bash perfbench/run.sh --workload node-hot --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the pinned workload seed; fingerprint.json holds the exact
// simulated counts every workload produces at this seed.
const defaultSeed = 1

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the daemon sees,
// reported by every workload with tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"refs_per_s", "refs/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
}

// perLayer are the metrics of single layers, reported by every workload
// with tracing on. A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"machine.new_s", "s"},
	{"apps.run_s", "s"},
	{"apps.verify_s", "s"},
	{"machine.ns_per_cycle", "ns"},
	{"multinode.run_s", "s"},
	{"multinode.verify_s", "s"},
	{"multinode.ns_per_node_cycle", "ns"},
	{"saunit.ns_per_tick", "ns"},
	{"saunit.ns_per_req", "ns"},
	{"cache.ns_per_tick", "ns"},
	{"cache.ns_per_req", "ns"},
	{"dram.ns_per_tick", "ns"},
	{"dram.ns_per_line", "ns"},
	{"network.xbar_ns_per_pkt", "ns"},
	{"network.multihop_ns_per_hop", "ns"},
	{"sim.ns_per_step", "ns"},
	{"sim.ns_per_jump", "ns"},
	{"sim.skipped_frac", "ratio"},
	{"server.stage_quota_ms_mean", "ms"},
	{"server.stage_quota_ms_p99", "ms"},
	{"server.stage_queue_ms_mean", "ms"},
	{"server.stage_queue_ms_p99", "ms"},
	{"server.stage_cache_ms_mean", "ms"},
	{"server.stage_cache_ms_p99", "ms"},
	{"server.stage_run_ms_mean", "ms"},
	{"server.stage_run_ms_p99", "ms"},
	{"server.stage_encode_ms_mean", "ms"},
	{"server.stage_encode_ms_p99", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.coalesced", "count"},
	{"server.rejected_429", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.transport_ms_mean", "ms"},
	{"saunit.requests", "count"},
	{"saunit.combined", "count"},
	{"saunit.combine_ratio", "ratio"},
	{"saunit.stall_cycles", "count"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.writebacks", "count"},
	{"dram.line_reads", "count"},
	{"dram.line_writes", "count"},
	{"dram.row_hit_ratio", "ratio"},
	{"machine.sim_cycles", "count"},
	{"machine.mem_refs", "count"},
	{"network.hops", "count"},
	{"network.root_pkts", "count"},
	{"network.combined", "count"},
	{"network.combine_ratio", "ratio"},
	{"multinode.sum_backs", "count"},
	{"multinode.sim_cycles", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"host.calib_ms", "ms"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// traceOut is where the traced run writes its Chrome/Perfetto
	// trace-event JSON ("" = nowhere).
	traceOut string
	// record, when set, writes the run's simulated counts into this
	// fingerprint file instead of checking them.
	record string
}

// outcome accumulates one run's verdict and measurements.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	raw       map[string]float64 // metrics before host-speed normalization
	host      hostSpeed
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, raw: map[string]float64{}}
}

// setNormalized records a time or rate metric a workload normalized itself,
// against calibration samples taken next to what it measured, with its
// measured value.
func (o *outcome) setNormalized(name string, measured, normalized float64) {
	o.raw[name] = measured
	o.metrics[name] = normalized
}

// fail records a failed operation and the reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// problem records a check that did not hold without counting an operation
// as failed (a reconciliation or fingerprint mismatch).
func (o *outcome) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(o.problems) < 50 {
		o.problems = append(o.problems, msg)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *outcome){
	"node-hot":  runNodeHot,
	"node-cold": runNodeCold,
	"fabric":    runFabric,
	"daemon":    runDaemon,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	// One thread runs Go code. The simulator is single-threaded at the
	// library defaults, and the daemon's set-up and its one-caller closed
	// loop then run on that thread instead of waking a second vCPU for
	// every hand-off: on a shared host, how fast a vCPU wakes varies from
	// minute to minute and has nothing to do with the program. The garbage
	// collector's work lands on the same thread, inside the measured time.
	// Only the daemon's open loop runs on nproc threads (daemon.go).
	runtime.GOMAXPROCS(1)
	o := newOutcome()
	workloads[cfg.workload](cfg, o)
	o.normalize()
	res := o.result(cfg.trace)
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
	}
	if err := writeResult(os.Stdout, cfg, o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed (inputs are a pure function of it)")
	seconds := fs.Float64("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = traced run with per-layer metrics")
	record := fs.String("record", "", "write the run's simulated counts into this fingerprint file (default seed only)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[*workload]; !ok {
		return config{}, fmt.Errorf("-workload %q unknown (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *seconds > 600 {
		return config{}, fmt.Errorf("-seconds %g out of range (0, 600]", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("-trace %d invalid (want 0 or 1)", *trace)
	}
	if *record != "" && *seed != defaultSeed {
		return config{}, fmt.Errorf("-record needs the default seed %d", defaultSeed)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, record: *record}
	if cfg.trace {
		cfg.traceOut = filepath.Join(".bench_build", "perfbench", "traces",
			fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	return cfg, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// normalize converts the run's host times to reference-host units (see
// calib.go), keeping the measured values in raw: times scale by the run's
// host factor, rates by its inverse; counts, ratios and memory stay as
// measured. Metrics a workload normalized itself are left alone.
func (o *outcome) normalize() {
	f := o.host.factor()
	if len(o.host.samples) > 0 {
		o.metrics["host.calib_ms"] = 1e3 * median(o.host.samples)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		v, ok := o.metrics[d.name]
		if _, done := o.raw[d.name]; !ok || done || d.name == "host.calib_ms" {
			continue
		}
		o.raw[d.name] = v
		switch d.unit {
		case "s", "ms", "ns":
			o.metrics[d.name] = v * f
		case "refs/s":
			o.metrics[d.name] = v / f
		}
	}
}

// result selects the metrics of the run's mode. An end-to-end metric the
// workload failed to measure is a problem, never a silent zero.
func (o *outcome) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !traced && (!ok || !(v > 0) || math.IsInf(v, 0)) {
			o.problem("end-to-end metric %s not measured (%v)", d.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		o.problem("no operation attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = o.failed == 0 && len(o.problems) == 0
	return res
}

// writeResult prints the human-readable metric lines and then the JSON
// result as the last line.
func writeResult(w io.Writer, cfg config, o *outcome, res result) error {
	mode := "end-to-end"
	defs := endToEnd
	if cfg.trace {
		mode, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g %s nproc=%d %s host-speed factor %.4f (values in reference-host units; measured in brackets)\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, runtime.NumCPU(), runtime.Version(), o.host.factor())
	for _, d := range defs {
		line := fmt.Sprintf("  %-30s %14s %s", d.name, strconv.FormatFloat(res.Metrics[d.name].Value, 'g', 6, 64), d.unit)
		if raw, ok := o.raw[d.name]; ok && raw != res.Metrics[d.name].Value {
			line += fmt.Sprintf(" [%s]", strconv.FormatFloat(raw, 'g', 6, 64))
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-30s %14s ratio (failed %d of %d attempted)\n", "fail_frac",
		strconv.FormatFloat(float64(res.Failed)/float64(res.Attempted), 'g', 6, 64), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// peakRSSMB returns the process's resident-set high-water mark in MB
// (VmHWM), falling back to the Go runtime's reserved memory where /proc is
// unavailable. Workloads read it when their measured phase ends, before the
// benchmark's own reference computations and rigs.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mix derives an independent sub-seed from a workload seed and a salt
// (splitmix64 finalizer), so each input of a workload gets its own stream.
func mix(seed, salt uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + salt
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// elapsed reports seconds since t.
func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }
