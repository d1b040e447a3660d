package machine

import (
	"fmt"
	"reflect"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// fig6Program is a histogram-shaped workload (figure 6): one large
// scatter-add over a hot bin range, bracketed by a load of the input and a
// readback of the bins. Collisions force combining-store residency.
func fig6Program(n, bins int) []Op {
	addrs := make([]mem.Addr, n)
	vals := make([]mem.Word, n)
	state := uint64(0xF166)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = mem.Addr(state % uint64(bins))
		vals[i] = mem.I64(int64(i%5 + 1))
	}
	return []Op{
		LoadStream("load-data", 1<<16, n),
		ScatterAdd("histogram", mem.AddI64, addrs, vals),
		Fence(),
	}
}

// fig10Program is a molecular-dynamics-shaped workload (figure 10): gather
// positions, compute forces in a kernel, scatter-add them back
// asynchronously under the next kernel, then fence — the async overlap is
// what exercises streams in flight across op boundaries.
func fig10Program(n, sites int) []Op {
	gAddrs := make([]mem.Addr, n)
	sAddrs := make([]mem.Addr, n)
	vals := make([]mem.Word, n)
	state := uint64(0xF1010)
	for i := range gAddrs {
		state = state*6364136223846793005 + 1442695040888963407
		gAddrs[i] = mem.Addr(state % uint64(sites))
		state = state*6364136223846793005 + 1442695040888963407
		sAddrs[i] = mem.Addr(state % uint64(sites))
		vals[i] = mem.F64(float64(i%13) * 0.5)
	}
	sa := ScatterAdd("forces", mem.AddF64, sAddrs, vals)
	sa.Async = true
	return []Op{
		Gather("positions", gAddrs),
		Kernel("interactions", 80_000, 4096),
		sa,
		Kernel("next-block", 60_000, 4096),
		Fence(),
	}
}

// surfaceTrace runs prog on a fresh machine and captures everything the
// stepping mode must not change: the clock after every op, per-op results,
// the final counter snapshot, the span report, and the functional memory
// image.
func surfaceTrace(cfg Config, prog []Op, words int) (nows []uint64, results []Result, snap stats.Snapshot, rep span.Report, image []int64) {
	m := New(cfg)
	tr := span.New(4)
	m.SetSpanTracer(tr)
	for _, op := range prog {
		results = append(results, m.RunOp(op))
		nows = append(nows, m.Now())
	}
	m.FlushCaches()
	return nows, results, m.StatsSnapshot(), span.Aggregate(tr.Ops()), m.Store().ReadI64Slice(0, words)
}

// referenceImage is the functional result of prog's scatter-adds over the
// first words addresses of an empty store: what any correct run, faulted or
// not, must leave in memory.
func referenceImage(prog []Op, words int) []int64 {
	img := make([]mem.Word, words)
	for _, op := range prog {
		if op.Kind != OpMem || !op.MemKind.IsScatterAdd() {
			continue
		}
		for i, a := range op.Addrs {
			img[a] = mem.Combine(op.MemKind, img[a], op.Vals[i])
		}
	}
	out := make([]int64, words)
	for i, w := range img {
		out[i] = mem.AsI64(w)
	}
	return out
}

// TestWholeSurfaceChaosExact checks everything a machine run exposes on
// figure-6- and figure-10-shaped workloads (the latter with an asynchronous
// stream in flight across op boundaries), fault injection on and off, in
// both stepping modes. Every cell checks that its run leaves the exact
// functional memory image. The legacy=false cells compare fast-forward
// against per-cycle stepping: clocks, per-op results, counters, span
// reports and memory must be byte-identical. The legacy=true cells check
// that the per-cycle oracle itself repeats byte-identically on a fresh
// machine, which that comparison relies on.
func TestWholeSurfaceChaosExact(t *testing.T) {
	progs := []struct {
		name  string
		prog  []Op
		words int
	}{
		{"fig6-histogram", fig6Program(6_000, 512), 512},
		{"fig10-moldyn", fig10Program(4_000, 768), 768},
	}
	fc := fault.DefaultChaos()
	fc.DRAMStallRate = 0.05
	fc.DRAMWindowEvery = 2_000
	fc.DRAMWindowSpan = 100
	fc.CSCorruptRate = 0.01
	fc.FUErrorRate = 0.01
	for _, p := range progs {
		want := referenceImage(p.prog, p.words)
		for _, legacy := range []bool{false, true} {
			for _, faults := range []bool{true, false} {
				name := fmt.Sprintf("%s/legacy=%v/faults=%v", p.name, legacy, faults)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Cache.TotalLines = 256
					cfg.KernelStartup = 8
					cfg.MemOpStartup = 4
					if faults {
						cfg.Faults = fc
					}
					cfg.LegacyStepping = legacy
					gotNows, gotRes, gotSnap, gotRep, gotMem := surfaceTrace(cfg, p.prog, p.words)
					if !reflect.DeepEqual(gotMem, want) {
						t.Fatal("memory image differs from the functional reference")
					}
					// The oracle: per-cycle stepping on a fresh machine.
					cfg.LegacyStepping = true
					nows, res, snap, rep, img := surfaceTrace(cfg, p.prog, p.words)
					if !reflect.DeepEqual(nows, gotNows) {
						t.Fatalf("per-op clocks diverge\n  run:    %v\n  legacy: %v", gotNows, nows)
					}
					if !reflect.DeepEqual(res, gotRes) {
						t.Fatal("per-op results diverge")
					}
					if !reflect.DeepEqual(snap, gotSnap) {
						for i := range snap.Entries {
							if i < len(gotSnap.Entries) && snap.Entries[i] != gotSnap.Entries[i] {
								t.Errorf("counter %q: legacy %d vs run %d",
									snap.Entries[i].Key, snap.Entries[i].Val, gotSnap.Entries[i].Val)
							}
						}
						t.Fatal("counter snapshots diverge")
					}
					if !reflect.DeepEqual(rep, gotRep) {
						t.Fatalf("span reports diverge:\n%+v\nvs\n%+v", rep, gotRep)
					}
					if !reflect.DeepEqual(img, gotMem) {
						t.Fatal("memory images diverge")
					}
				})
			}
		}
	}
}
