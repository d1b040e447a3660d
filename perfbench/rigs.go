package main

import (
	"fmt"
	"time"

	"scatteradd/internal/cache"
	"scatteradd/internal/dram"
	"scatteradd/internal/mem"
	"scatteradd/internal/network"
	"scatteradd/internal/saunit"
	"scatteradd/internal/sim"
)

// A rig replays a workload's captured request stream through one
// component's public Accept/Tick/Pop surface in isolation and times the
// whole replay (never single calls, whose timer cost would swamp them).
// Rigs run after the timed passes of a traced run.

const (
	// maxCapture bounds the requests captured from one pass.
	maxCapture = 1 << 21
	// rigWindows x rigWindowLen requests are replayed: contiguous windows
	// spread evenly over the captured stream, so each phase of the pass
	// (loads, gathers, scatter-adds) appears in proportion.
	rigWindows   = 16
	rigWindowLen = 4096
	// rigCycleLimit stops a rig that fails to drain.
	rigCycleLimit = 1 << 26
)

// rigInput is the traffic the rigs replay. dsts and nodes are set only for
// the fabric, whose packets the network rigs route.
type rigInput struct {
	reqs  []mem.Request
	dsts  []int
	nodes int
}

// sampleWindows picks the replayed windows out of a captured stream.
func sampleWindows(reqs []mem.Request) []mem.Request {
	if len(reqs) <= rigWindows*rigWindowLen {
		return reqs
	}
	out := make([]mem.Request, 0, rigWindows*rigWindowLen)
	stride := (len(reqs) - rigWindowLen) / (rigWindows - 1)
	for w := 0; w < rigWindows; w++ {
		out = append(out, reqs[w*stride:w*stride+rigWindowLen]...)
	}
	return out
}

// runRigs times every component rig on the input and stores the per-layer
// metrics. A rig that cannot drain is a problem, not a metric.
func runRigs(in rigInput, o *outcome) {
	defer func() {
		if p := recover(); p != nil {
			o.problem("rig: %v", p)
		}
	}()
	if len(in.reqs) == 0 {
		o.problem("rig: no captured requests")
		return
	}
	down, sec, cycles := saunitRig(in.reqs)
	o.metrics["saunit.ns_per_tick"] = 1e9 * sec / float64(cycles)
	o.metrics["saunit.ns_per_req"] = 1e9 * sec / float64(len(in.reqs))

	sec, cycles = cacheRig(down)
	o.metrics["cache.ns_per_tick"] = 1e9 * sec / float64(cycles)
	o.metrics["cache.ns_per_req"] = 1e9 * sec / float64(len(down))

	lines := lineStream(down)
	sec, cycles = dramRig(lines)
	o.metrics["dram.ns_per_tick"] = 1e9 * sec / float64(cycles)
	o.metrics["dram.ns_per_line"] = 1e9 * sec / float64(len(lines))

	step, jump, skipped := engineRig(in.reqs)
	o.metrics["sim.ns_per_step"] = step
	o.metrics["sim.ns_per_jump"] = jump
	o.metrics["sim.skipped_frac"] = skipped

	if in.nodes > 0 {
		xbar := network.New[mem.Request](fabricLink())
		sec = fabricRig(xbar, in)
		o.metrics["network.xbar_ns_per_pkt"] = 1e9 * sec / float64(xbar.Stats().Delivered)
		mhCfg := network.DefaultMultiHopConfig(in.nodes)
		mhCfg.Link = fabricLink()
		mh := network.NewMultiHop[mem.Request](mhCfg)
		sec = fabricRig(mh, in)
		o.metrics["network.multihop_ns_per_hop"] = 1e9 * sec / float64(mh.Stats().Hops)
	}
}

// rigUniform is the word memory under the scatter-add unit rig: the
// sensitivity study's uniform memory at the Table 1 DRAM row-hit latency.
func rigUniform() *dram.Uniform { return dram.NewUniform(20, 1, 64) }

// recordingPort passes requests to a uniform memory and records them: the
// stream a scatter-add unit sends to its cache bank.
type recordingPort struct {
	*dram.Uniform
	log []mem.Request
}

func (p *recordingPort) Accept(now uint64, r mem.Request) bool {
	ok := p.Uniform.Accept(now, r)
	if ok {
		p.log = append(p.log, r)
	}
	return ok
}

// agWidth is the machine's address-generator issue width (Table 1).
const agWidth = 8

// saunitRig replays reqs through one saunit.Unit over dram.Uniform. It runs
// once untimed to record the unit's downstream stream (the cache rig's
// input), then once timed.
func saunitRig(reqs []mem.Request) (down []mem.Request, sec float64, cycles uint64) {
	rp := &recordingPort{Uniform: rigUniform()}
	driveUnit(saunit.New(saunit.DefaultConfig(), rp), rp.Uniform, reqs)
	uni := rigUniform()
	u := saunit.New(saunit.DefaultConfig(), uni)
	t := time.Now()
	cycles = driveUnit(u, uni, reqs)
	return rp.log, elapsed(t), cycles
}

func driveUnit(u *saunit.Unit, uni *dram.Uniform, reqs []mem.Request) uint64 {
	i := 0
	for now := uint64(0); now < rigCycleLimit; now++ {
		for k := 0; k < agWidth && i < len(reqs) && u.Accept(now, reqs[i]); k++ {
			i++
		}
		u.Tick(now)
		uni.Tick(now)
		for {
			if _, ok := u.PopResponse(now); !ok {
				break
			}
		}
		if i == len(reqs) && !u.Busy() {
			return now + 1
		}
	}
	panic("saunit rig did not drain")
}

// cacheRig replays the scatter-add unit's downstream stream through one
// cache.Bank (a Table 1 bank's share of the lines) over dram.DRAM.
func cacheRig(reqs []mem.Request) (sec float64, cycles uint64) {
	cfg := cache.DefaultConfig()
	cfg.TotalLines /= cfg.Banks
	cfg.Banks = 1
	d := dram.New(dram.DefaultConfig())
	b := cache.NewBank(cfg, 0, d, cache.Normal)
	t := time.Now()
	i := 0
	for now := uint64(0); now < rigCycleLimit; now++ {
		for i < len(reqs) && b.CanAccept(now) && b.Accept(now, reqs[i]) {
			i++
		}
		b.Tick(now)
		d.Tick(now)
		for {
			r, ok := d.PopResponse(now)
			if !ok {
				break
			}
			b.Fill(now, r.Line, r.Data)
		}
		for {
			if _, ok := b.PopResponse(now); !ok {
				break
			}
		}
		if i == len(reqs) && !b.Busy() && !d.Busy() {
			return elapsed(t), now + 1
		}
	}
	panic("cache rig did not drain")
}

// lineStream turns a word stream into the DRAM line transactions it would
// cause without a cache: one per change of line, writes for stores.
func lineStream(reqs []mem.Request) []dram.LineReq {
	var out []dram.LineReq
	last := mem.Addr(1<<63 - 1)
	for _, r := range reqs {
		ln := r.Addr.Line()
		if ln == last {
			continue
		}
		last = ln
		out = append(out, dram.LineReq{ID: uint64(len(out) + 1), Line: ln, Write: r.Kind == mem.Write})
	}
	return out
}

// dramRig replays line transactions through a Table 1 dram.DRAM.
func dramRig(lines []dram.LineReq) (sec float64, cycles uint64) {
	d := dram.New(dram.DefaultConfig())
	t := time.Now()
	i := 0
	for now := uint64(0); now < rigCycleLimit; now++ {
		for i < len(lines) && d.CanAccept(lines[i].Line) && d.Accept(now, lines[i]) {
			i++
		}
		d.Tick(now)
		for {
			if _, ok := d.PopResponse(now); !ok {
				break
			}
		}
		if i == len(lines) && !d.Busy() {
			return elapsed(t), now + 1
		}
	}
	panic("dram rig did not drain")
}

// fabricLink is the fabric workload's per-switch link: the default
// crossbar at wire depth 64, as exp.runScalePoint configures it.
func fabricLink() network.Config {
	c := network.DefaultConfig(fabricNodes)
	c.WireDepth = 64
	return c
}

// fabricRig injects the fabric trace's packets (source node i mod nodes,
// destination the bin's owner) one per source per cycle and drains every
// destination each cycle.
func fabricRig(f network.Fabric[mem.Request], in rigInput) float64 {
	queues := make([][]network.Packet[mem.Request], in.nodes)
	for i, r := range in.reqs {
		src := r.Node
		queues[src] = append(queues[src], network.Packet[mem.Request]{Src: src, Dst: in.dsts[i], Payload: r})
	}
	delivered := 0
	t := time.Now()
	for now := uint64(0); now < rigCycleLimit; now++ {
		for src, q := range queues {
			if len(q) > 0 && f.CanSend(src) && f.Send(q[0]) {
				queues[src] = q[1:]
			}
		}
		f.Tick(now)
		for dst := 0; dst < in.nodes; dst++ {
			for {
				if _, ok := f.Recv(dst); !ok {
					break
				}
				delivered++
			}
		}
		if delivered == len(in.reqs) {
			return elapsed(t)
		}
	}
	panic(fmt.Sprintf("fabric rig did not drain (%d of %d delivered)", delivered, len(in.reqs)))
}

// component is what the engine rig drives: a sim.Ticker that can also fast
// forward.
type component interface {
	sim.Ticker
	sim.FastForwarder
}

// countingComponent counts the engine's calls into a component: one Tick
// per stepped cycle, one Skip per fast-forward jump.
type countingComponent struct {
	c             component
	steps, jumps  uint64
	skippedCycles uint64
}

func (c *countingComponent) Tick(now uint64)             { c.steps++; c.c.Tick(now) }
func (c *countingComponent) NextEvent(now uint64) uint64 { return c.c.NextEvent(now) }
func (c *countingComponent) Skip(now, n uint64) {
	c.jumps++
	c.skippedCycles += n
	c.c.Skip(now, n)
}

// feeder issues the replayed requests into the unit at the address
// generators' width and consumes its responses.
type feeder struct {
	u    *saunit.Unit
	reqs []mem.Request
	i    int
}

func (f *feeder) Tick(now uint64) {
	for k := 0; k < agWidth && f.i < len(f.reqs) && f.u.Accept(now, f.reqs[f.i]); k++ {
		f.i++
	}
	for {
		if _, ok := f.u.PopResponse(now); !ok {
			break
		}
	}
}

func (f *feeder) NextEvent(now uint64) uint64 {
	if f.i < len(f.reqs) {
		return now
	}
	return sim.Never
}

func (f *feeder) Skip(now, cycles uint64) {}

// engineRig drives the scatter-add unit rig through a sim.Engine whose
// components are wrapped in counters, once stepping every cycle and once
// with fast-forward. The stepped run prices a step; the fast-forward run's
// remaining time, divided by its jumps, prices a jump.
func engineRig(reqs []mem.Request) (nsPerStep, nsPerJump, skippedFrac float64) {
	run := func(ff bool) (sec float64, fd *countingComponent, now uint64) {
		uni := rigUniform()
		u := saunit.New(saunit.DefaultConfig(), uni)
		f := &feeder{u: u, reqs: reqs}
		fd = &countingComponent{c: f}
		eng := sim.NewEngine()
		eng.Add(fd, &countingComponent{c: u}, &countingComponent{c: uni})
		eng.SetFastForward(ff)
		t := time.Now()
		now, ok := eng.RunUntil(func() bool { return f.i == len(reqs) && !u.Busy() }, rigCycleLimit)
		if !ok {
			panic("engine rig did not drain")
		}
		return elapsed(t), fd, now
	}
	stepSec, stepped, _ := run(false)
	nsPerStep = 1e9 * stepSec / float64(stepped.steps)
	ffSec, ffd, now := run(true)
	if ffd.jumps > 0 {
		nsPerJump = max(0, (1e9*ffSec-nsPerStep*float64(ffd.steps))/float64(ffd.jumps))
	}
	return nsPerStep, nsPerJump, float64(ffd.skippedCycles) / float64(now)
}
