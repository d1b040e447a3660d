package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"scatteradd/internal/apps"
	"scatteradd/internal/machine"
	"scatteradd/internal/mem"
	"scatteradd/internal/multinode"
	"scatteradd/internal/stats"
	"scatteradd/internal/workload"
)

// Workload input sizes. Modelled caches start empty in every run, as in the
// paper: every pass builds fresh machines.
const (
	hotHistRefs  = 1 << 18 // node-hot histogram: 256K refs over 2048 bins
	hotHistBins  = 2048
	waterMols    = 903 // node-hot molecular dynamics: the Fig 10 water box
	waterCutoff  = 8.0
	coldHistRefs = 1 << 16 // node-cold histogram: 64K refs over 1M bins
	coldHistBins = 1 << 20
	fabricNodes  = 256     // fabric: Fig 14's hot histogram on 256 trimmed nodes
	fabricRefs   = 1 << 13 // 8K refs over 128 bins, about 64 refs per bin
	fabricBins   = fabricRefs / 64
	minPasses    = 3
)

// fabricTopologies are the fabric workload's interconnects, in pass order.
var fabricTopologies = []string{"flat+comb", "tree+comb", "mesh+comb"}

// counts are one pass's exact simulated counts, keyed by per-layer metric
// name. A speed-only change must leave every one of them unchanged.
type counts map[string]uint64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// simCall is one simulation of a pass, prepared during set-up: run drives
// the simulator and returns its counts, verify checks the numeric result
// against the sequential reference.
type simCall struct {
	layer  string // "apps" or "multinode": names the run and verify spans
	run    func() counts
	verify func() error
}

// simWorkload builds one pass: inputs from the seed, fresh machines, and
// the calls to run. capture, when non-nil, receives every memory request
// the pass's address generators issue (machine.SetTracer), for the rigs.
type simWorkload struct {
	name      string
	refsKey   string // the count that refs_per_s divides by wall time
	setup     func(seed uint64, rec *recorder, parent int, capture func(mem.Request)) []simCall
	rigStream func(seed uint64) rigInput // the traffic the rigs replay
}

// nodeApp is one application of a single-machine workload: it generates
// the input from the seed and returns the run and verify calls.
type nodeApp func(seed uint64) (run func(*machine.Machine) machine.Result, verify func(*machine.Machine) error)

func histApp(refs, bins int) nodeApp {
	return func(seed uint64) (func(*machine.Machine) machine.Result, func(*machine.Machine) error) {
		h := apps.NewHistogram(refs, bins, seed)
		return h.RunHW, h.Verify
	}
}

func molDynApp(seed uint64) (func(*machine.Machine) machine.Result, func(*machine.Machine) error) {
	md := apps.NewMolDyn(waterMols, waterCutoff, seed)
	return md.RunHWSA, md.Verify
}

func spmvApp(seed uint64) (func(*machine.Machine) machine.Result, func(*machine.Machine) error) {
	s := apps.NewSpMV(8, 8, 5, seed)
	return s.RunCSR, s.Verify
}

// nodeWorkload runs apps, each on its own Table 1 machine, once per pass.
func nodeWorkload(name string, list ...nodeApp) simWorkload {
	w := simWorkload{name: name, refsKey: "machine.mem_refs"}
	w.setup = func(seed uint64, rec *recorder, parent int, capture func(mem.Request)) []simCall {
		calls := make([]simCall, 0, len(list))
		for i, a := range list {
			var run func(*machine.Machine) machine.Result
			var verify func(*machine.Machine) error
			rec.timed("workload.gen", parent, func(int) { run, verify = a(mix(seed, uint64(i))) })
			var m *machine.Machine
			rec.timed("machine.new", parent, func(int) { m = machine.New(machine.DefaultConfig()) })
			if capture != nil {
				m.SetTracer(func(_ uint64, r mem.Request) { capture(r) })
			}
			calls = append(calls, simCall{
				layer:  "apps",
				run:    func() counts { return nodeCounts(run(m), m) },
				verify: func() error { return verify(m) },
			})
		}
		return calls
	}
	w.rigStream = func(seed uint64) rigInput {
		var reqs []mem.Request
		for _, c := range w.setup(seed, nil, -1, func(r mem.Request) {
			if len(reqs) < maxCapture {
				reqs = append(reqs, r)
			}
		}) {
			c.run()
		}
		return rigInput{reqs: sampleWindows(reqs)}
	}
	return w
}

// nodeCounts reads a finished run's simulated counts from its Result and
// the machine's ComponentStats.
func nodeCounts(res machine.Result, m *machine.Machine) counts {
	sa, c, d := m.ComponentStats()
	return counts{
		"machine.sim_cycles":  res.Cycles,
		"machine.mem_refs":    res.MemRefs,
		"saunit.requests":     sa.SARequests,
		"saunit.combined":     sa.Combined,
		"saunit.stall_cycles": sa.StallFull,
		"cache.hits":          c.Hits,
		"cache.misses":        c.Misses,
		"cache.merged_misses": c.MergedMiss,
		"cache.writebacks":    c.WriteBacks,
		"dram.line_reads":     d.Reads,
		"dram.line_writes":    d.Writes,
		"dram.row_hits":       d.RowHits,
		"dram.row_misses":     d.RowMisses,
	}
}

var (
	nodeHot  = nodeWorkload("node-hot", histApp(hotHistRefs, hotHistBins), molDynApp)
	nodeCold = nodeWorkload("node-cold", histApp(coldHistRefs, coldHistBins), spmvApp)
	fabric   = fabricWorkload()
)

func runNodeHot(cfg config, o *outcome)  { runSim(nodeHot, cfg, o) }
func runNodeCold(cfg config, o *outcome) { runSim(nodeCold, cfg, o) }
func runFabric(cfg config, o *outcome)   { runSim(fabric, cfg, o) }

// fabricTrace is the fabric workload's input: the hot histogram's
// scatter-add references and the owner span that block-partitions the bins
// over the nodes.
type fabricTrace struct {
	refs      []multinode.Ref
	ref       []int64 // sequential reference histogram
	ownerSpan mem.Addr
}

// newFabricTrace builds the hot histogram's references: exactly
// fabricRefs/fabricBins per bin, in a random order drawn from the seed.
// Fig 14 draws them uniformly, but then the load on the busiest owner, and
// with it the simulated cycles and the host time, moves by up to 10% from
// seed to seed; a fixed count per bin leaves only the order to the seed.
func newFabricTrace(seed uint64) fabricTrace {
	idx := make([]int, fabricRefs)
	for i := range idx {
		idx[i] = i % fabricBins
	}
	rng := workload.NewRNG(seed)
	for i := len(idx) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	t := fabricTrace{
		refs: make([]multinode.Ref, len(idx)),
		ref:  workload.HistogramReference(idx, fabricBins),
		// As exp.runScalePoint: a line-aligned share of the bins per node.
		ownerSpan: (mem.Addr(fabricBins)/fabricNodes + mem.LineWords) &^ (mem.LineWords - 1),
	}
	for i, x := range idx {
		t.refs[i] = multinode.Ref{Addr: mem.Addr(x), Val: mem.I64(1)}
	}
	return t
}

// fabricSystem builds exp.runScalePoint's trimmed node (2 banks, 256 lines,
// 2 DRAM channels, wire depth 64) over the named topology.
func fabricSystem(topology string, t fabricTrace) *multinode.System {
	topo, err := multinode.ParseTopology(topology, 0)
	if err != nil {
		panic(fmt.Sprintf("perfbench: topology %q: %v", topology, err))
	}
	cfg := multinode.DefaultConfig(fabricNodes, 1, t.ownerSpan)
	cfg.Topology = topo
	cfg.Cache.Banks = 2
	cfg.Cache.TotalLines = 256
	cfg.DRAM.Channels = 2
	cfg.DRAM.BanksPerChannel = 4
	cfg.Net.WireDepth = 64
	return multinode.New(cfg, mem.AddI64)
}

func fabricWorkload() simWorkload {
	w := simWorkload{name: "fabric", refsKey: "multinode.adds"}
	w.setup = func(seed uint64, rec *recorder, parent int, _ func(mem.Request)) []simCall {
		var t fabricTrace
		rec.timed("workload.gen", parent, func(int) { t = newFabricTrace(seed) })
		calls := make([]simCall, 0, len(fabricTopologies))
		for _, topo := range fabricTopologies {
			var s *multinode.System
			rec.timed("machine.new", parent, func(int) { s = fabricSystem(topo, t) })
			calls = append(calls, simCall{
				layer:  "multinode",
				run:    func() counts { return fabricCounts(s.RunTrace(t.refs), s.StatsSnapshot().Collapse()) },
				verify: func() error { return verifyFabric(s, t, topo) },
			})
		}
		return calls
	}
	w.rigStream = func(seed uint64) rigInput {
		t := newFabricTrace(seed)
		in := rigInput{nodes: fabricNodes}
		for i, r := range t.refs {
			dst := int(r.Addr / t.ownerSpan)
			if dst >= fabricNodes {
				dst = fabricNodes - 1
			}
			in.reqs = append(in.reqs, mem.Request{ID: uint64(i + 1), Kind: mem.AddI64, Addr: r.Addr, Val: r.Val, Node: i % fabricNodes})
			in.dsts = append(in.dsts, dst)
		}
		return in
	}
	return w
}

// fabricCounts reads a replay's exact counts from its Result, NetStats and
// the system's collapsed counter snapshot.
func fabricCounts(res multinode.Result, snap stats.Snapshot) counts {
	get := func(k string) uint64 { v, _ := snap.Get(k); return v }
	return counts{
		"multinode.sim_cycles":  res.Cycles,
		"multinode.node_cycles": res.Cycles * uint64(res.Nodes),
		"multinode.adds":        res.Adds,
		"multinode.sum_backs":   res.SumBacks,
		"network.sent":          res.NetStats.Sent,
		"network.hops":          res.NetStats.Hops,
		"network.root_pkts":     res.NetStats.RootPkts,
		"network.combined":      res.NetStats.Combined,
		"saunit.requests":       get("saunit/cs_hits") + get("saunit/cs_misses"),
		"saunit.combined":       get("saunit/cs_hits"),
		"saunit.stall_cycles":   get("saunit/stall_full_cycles"),
		"cache.hits":            get("cache/hits"),
		"cache.misses":          get("cache/misses"),
		"cache.writebacks":      get("cache/write_backs"),
		"dram.line_reads":       get("dram/reads"),
		"dram.line_writes":      get("dram/writes"),
		"dram.row_hits":         get("dram/row_hits"),
		"dram.row_misses":       get("dram/row_misses"),
	}
}

func verifyFabric(s *multinode.System, t fabricTrace, topo string) error {
	addrs := make([]mem.Addr, len(t.ref))
	for i := range addrs {
		addrs[i] = mem.Addr(i)
	}
	for b, got := range s.ReadResult(addrs) {
		if mem.AsI64(got) != t.ref[b] {
			return fmt.Errorf("fabric %s: bin %d = %d, want %d", topo, b, mem.AsI64(got), t.ref[b])
		}
	}
	return nil
}

// passStats are the measurements of the passes of one run.
type passStats struct {
	setup, wall, total, rate []float64 // seconds, seconds, seconds, refs/s
	// calib holds the calibration samples taken before the first pass and
	// after each pass: pass i lies between calib[i] and calib[i+1].
	calib                 []float64
	tracedWall, plainWall []float64
	layers                map[string][]float64 // per traced pass, by span name: self seconds
	unattributed          []float64
	counts                counts // the first pass's counts
}

// runSim measures a simulator workload: passes of set-up (inputs and fresh
// machines) then the simulation and verification calls, repeated until the
// time is used, reporting medians over passes. With tracing on, every other
// pass records spans (the rest measure the tracing overhead), and the rigs
// run after the timed passes.
func runSim(w simWorkload, cfg config, o *outcome) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(fmt.Sprintf("%s-seed%d-%d", w.name, cfg.seed, os.Getpid()))
	}
	ps := passStats{layers: map[string][]float64{}}
	start := time.Now()
	ps.calib = append(ps.calib, o.host.sample())
	for pass := 0; ; pass++ {
		if pass >= minPasses && elapsed(start)+median(ps.total) > cfg.seconds {
			break
		}
		var prec *recorder
		if pass%2 == 1 {
			prec = rec
		}
		from := prec.mark()
		root := prec.begin("pass", -1, 0)
		var calls []simCall
		setup := prec.timed("setup", root, func(id int) { calls = w.setup(cfg.seed, prec, id, nil) })
		c := counts{}
		wall := prec.timed("measure", root, func(id int) {
			for _, call := range calls {
				if cc, ok := execCall(call, prec, id, o); ok {
					c.add(cc)
				}
			}
		})
		prec.end(root)
		ps.calib = append(ps.calib, o.host.sample())
		ps.setup = append(ps.setup, setup)
		ps.wall = append(ps.wall, wall)
		ps.total = append(ps.total, setup+wall)
		ps.rate = append(ps.rate, float64(c[w.refsKey])/wall)
		if pass == 0 {
			ps.counts = c
		} else if diff := diffCounts(ps.counts, c); diff != "" {
			o.problem("pass %d simulated different counts than pass 0: %s", pass, diff)
		}
		if prec == nil {
			ps.plainWall = append(ps.plainWall, wall)
			continue
		}
		ps.tracedWall = append(ps.tracedWall, wall)
		self := prec.selfByName(from)
		for name, v := range self {
			ps.layers[name] = append(ps.layers[name], v)
		}
		ps.unattributed = append(ps.unattributed, self["measure"]/wall)
	}
	o.metrics["peak_rss_mb"] = peakRSSMB()
	checkFingerprint(w.name, cfg, ps.counts, o)
	fmt.Printf("%s: %d passes, wall_s per pass %s\n", w.name, len(ps.wall), formatSeconds(ps.wall))

	passMetrics(ps, o)
	if !cfg.trace {
		return
	}
	layerMetrics(ps, o)
	runRigs(w.rigStream(cfg.seed), o)
	if err := rec.write(cfg.traceOut); err != nil {
		o.problem("%v", err)
	}
}

// passMetrics sets the end-to-end metrics from the passes. Each pass is
// normalized by the two calibration samples around it, so a host that
// speeds up or slows down during the run is corrected pass by pass; the
// metrics are medians (and the 99th percentile) of the normalized passes.
func passMetrics(ps passStats, o *outcome) {
	f := bracketFactors(len(ps.wall), ps.calib, 1)
	o.setNormalized("setup_s", median(ps.setup), median(scaleBy(ps.setup, f, false)))
	o.setNormalized("wall_s", median(ps.wall), median(scaleBy(ps.wall, f, false)))
	o.setNormalized("refs_per_s", median(ps.rate), median(scaleBy(ps.rate, f, true)))
	total := scaleBy(ps.total, f, false)
	o.setNormalized("req_p50_ms", 1e3*median(ps.total), 1e3*median(total))
	o.setNormalized("req_p99_ms", 1e3*quantile(ps.total, 0.99), 1e3*quantile(total, 0.99))
}

// execCall runs one simulation and its verification inside spans, turning
// a panic or a verification error into a failed operation.
func execCall(call simCall, rec *recorder, parent int, o *outcome) (c counts, ok bool) {
	o.attempted++
	defer func() {
		if p := recover(); p != nil {
			o.fail("%s call panicked: %v", call.layer, p)
			ok = false
		}
	}()
	rec.timed(call.layer+".run", parent, func(int) { c = call.run() })
	var err error
	rec.timed(call.layer+".verify", parent, func(int) { err = call.verify() })
	if err != nil {
		o.fail("verification: %v", err)
		return nil, false
	}
	return c, true
}

// layerMetrics turns the traced passes' span self-times and the exact
// counts into per-layer metrics, and reconciles them with the wall time.
func layerMetrics(ps passStats, o *outcome) {
	for _, name := range []string{"workload.gen", "machine.new", "apps.run", "apps.verify", "multinode.run", "multinode.verify"} {
		o.metrics[name+"_s"] = median(ps.layers[name])
	}
	c := ps.counts
	if cyc := c["machine.sim_cycles"]; cyc > 0 {
		o.metrics["machine.ns_per_cycle"] = 1e9 * o.metrics["apps.run_s"] / float64(cyc)
	}
	if nc := c["multinode.node_cycles"]; nc > 0 {
		per := 1e9 * o.metrics["multinode.run_s"] / float64(nc)
		o.metrics["multinode.ns_per_node_cycle"] = per
		if back := per * float64(nc) / 1e9; !within(back, o.metrics["multinode.run_s"], 1e-9) {
			o.problem("multinode.ns_per_node_cycle x node-cycles = %gs, run span %gs", back, o.metrics["multinode.run_s"])
		}
	}
	for _, k := range []string{"saunit.requests", "saunit.combined", "saunit.stall_cycles", "cache.hits", "cache.misses",
		"cache.writebacks", "dram.line_reads", "dram.line_writes", "machine.sim_cycles", "machine.mem_refs",
		"network.hops", "network.root_pkts", "network.combined", "multinode.sum_backs", "multinode.sim_cycles"} {
		o.metrics[k] = float64(c[k])
	}
	o.metrics["saunit.combine_ratio"] = ratio(c["saunit.combined"], c["saunit.requests"])
	o.metrics["cache.hit_ratio"] = ratio(c["cache.hits"], c["cache.hits"]+c["cache.misses"]+c["cache.merged_misses"])
	o.metrics["dram.row_hit_ratio"] = ratio(c["dram.row_hits"], c["dram.row_hits"]+c["dram.row_misses"])
	o.metrics["network.combine_ratio"] = ratio(c["network.combined"], c["network.sent"])

	traceReconcile(ps.tracedWall, ps.plainWall, ps.unattributed, o)
}

// traceReconcile reports the tracing overhead (traced passes' median wall
// time against untraced ones') and checks that the layer spans account for
// the traced passes' wall time: what no layer span covers is the
// benchmark's own loop overhead.
func traceReconcile(traced, plain, unattributed []float64, o *outcome) {
	o.metrics["trace.overhead_frac"] = median(traced)/median(plain) - 1
	u := median(unattributed)
	o.metrics["trace.unattributed_frac"] = u
	if u > unattributedTolerance {
		o.problem("layer span self-times leave %.1f%% of wall_s unattributed (tolerance %.0f%%)", 100*u, 100*unattributedTolerance)
	}
}

// unattributedTolerance bounds the share of a traced pass's wall time that
// no layer span covers.
const unattributedTolerance = 0.02

// formatSeconds renders per-pass times for the human-readable output.
func formatSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func within(a, b, rel float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= rel*max(abs(a), abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// diffCounts describes how got differs from want, naming each moved count
// ("" when identical).
func diffCounts(want, got counts) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		if want[k] != got[k] {
			diffs = append(diffs, fmt.Sprintf("layer %s: %s = %d, want %d", layerOf(k), k, got[k], want[k]))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// layerOf is a metric's layer: the module named before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

//go:embed fingerprint.json
var fingerprintJSON []byte

// checkFingerprint compares a default-seed run's simulated counts with the
// recorded fingerprint, or records them with -record.
func checkFingerprint(name string, cfg config, got counts, o *outcome) {
	fp := map[string]counts{}
	if err := json.Unmarshal(fingerprintJSON, &fp); err != nil {
		o.problem("fingerprint.json: %v", err)
		return
	}
	if cfg.record != "" {
		// Keep the other workloads' counts already in the file.
		if data, err := os.ReadFile(cfg.record); err == nil {
			if err := json.Unmarshal(data, &fp); err != nil {
				o.problem("record fingerprint: %v", err)
				return
			}
		}
		fp[name] = got
		data, err := json.MarshalIndent(fp, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.record, append(data, '\n'), 0o644)
		}
		if err != nil {
			o.problem("record fingerprint: %v", err)
		}
		return
	}
	if cfg.seed != defaultSeed {
		return
	}
	want, ok := fp[name]
	if !ok {
		o.problem("fingerprint.json has no counts for %s", name)
		return
	}
	if diff := diffCounts(want, got); diff != "" {
		o.problem("simulated counts differ from the default-seed fingerprint: %s", diff)
	}
}
