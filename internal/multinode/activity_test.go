package multinode

import (
	"fmt"
	"reflect"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/stats"
	"scatteradd/internal/workload"
)

// hotOwnerTopologies are every name ParseTopology accepts.
var hotOwnerTopologies = []string{"flat", "flat+comb", "hypercube", "tree", "tree+comb", "mesh", "mesh+comb"}

// hotOwnerConfig is Fig 14's trimmed node (2 banks, 256 lines, 2 DRAM
// channels, wire depth 64) on the named topology. With a hot histogram
// block-partitioned over it only the first few nodes own any bins: the rest
// issue their trace share and then sit idle while the owners drain, which
// is the state activity-driven stepping puts to sleep.
func hotOwnerConfig(tb testing.TB, topology string, nodes int, span mem.Addr) Config {
	tb.Helper()
	topo, err := ParseTopology(topology, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig(nodes, 1, span)
	cfg.Topology = topo
	cfg.Cache.Banks = 2
	cfg.Cache.TotalLines = 256
	cfg.DRAM.Channels = 2
	cfg.DRAM.BanksPerChannel = 4
	cfg.Net.WireDepth = 64
	return cfg
}

// TestHotOwnerFFMatchesLegacy: on a hot histogram owned by 4 of 64 nodes,
// where most nodes spend most cycles asleep and settle their idle cycles
// late, fast-forward must reproduce per-cycle stepping exactly — Result,
// every counter and histogram bucket, and the final bins — on every
// topology, fault-free and under a scrub storm that degrades combining
// nodes, sequential and sharded. A quarter of the references spread over
// every node's share, so nodes stalled behind the hot owners also wake for
// local accepts and inbound traffic.
func TestHotOwnerFFMatchesLegacy(t *testing.T) {
	const (
		nodes = 64
		span  = 16           // words per node
		hot   = 4 * span     // bins owned by nodes 0-3
		bins  = nodes * span // the whole address space
	)
	rng := workload.NewRNG(71)
	refs := make([]Ref, 2048)
	want := make([]int64, bins)
	for i := range refs {
		x := rng.Intn(hot)
		if rng.Intn(4) == 0 {
			x = rng.Intn(bins)
		}
		refs[i] = Ref{Addr: mem.Addr(x), Val: mem.I64(1)}
		want[x]++
	}
	addrs := make([]mem.Addr, bins)
	for i := range addrs {
		addrs[i] = mem.Addr(i)
	}
	type outcome struct {
		res    Result
		snap   stats.Snapshot
		values []mem.Word
	}
	for _, topology := range hotOwnerTopologies {
		for _, faults := range []bool{false, true} {
			base := hotOwnerConfig(t, topology, nodes, span)
			if faults {
				base.Faults = fault.DefaultChaos()
				base.Faults.CSCorruptRate = 0.2 // scrub storm
				base.Faults.DegradeThreshold = 2
			}
			run := func(legacy bool, shards int) outcome {
				cfg := base
				cfg.LegacyStepping = legacy
				cfg.Shards = shards
				s := New(cfg, mem.AddI64)
				res := s.RunTrace(refs)
				return outcome{res, s.StatsSnapshot(), s.ReadResult(addrs)}
			}
			legacy := run(true, 1)
			for i, v := range legacy.values {
				if got := mem.AsI64(v); got != want[i] {
					t.Fatalf("%s faults=%v: legacy bin %d = %d, want %d", topology, faults, i, got, want[i])
				}
			}
			if faults && base.Topology.CombineCache && legacy.res.Degraded == 0 {
				t.Fatalf("%s: scrub storm degraded no node; the degrade path is untested: %+v", topology, legacy.res)
			}
			for _, shards := range []int{1, 2} {
				got := run(false, shards)
				if got.res != legacy.res {
					t.Fatalf("%s faults=%v shards=%d: FF result %+v != legacy %+v",
						topology, faults, shards, got.res, legacy.res)
				}
				if !reflect.DeepEqual(got.snap, legacy.snap) {
					t.Fatalf("%s faults=%v shards=%d: FF counters diverge from legacy:\n%s",
						topology, faults, shards, snapDiff(got.snap, legacy.snap))
				}
				if !reflect.DeepEqual(got.values, legacy.values) {
					t.Fatalf("%s faults=%v shards=%d: FF bins diverge from legacy", topology, faults, shards)
				}
			}
		}
	}
}

// snapDiff names the first counters that differ between two snapshots.
func snapDiff(got, want stats.Snapshot) string {
	out := ""
	for i := 0; i < len(got.Entries) && i < len(want.Entries); i++ {
		if g, w := got.Entries[i], want.Entries[i]; g != w {
			out += fmt.Sprintf("  got %s=%d, want %s=%d\n", g.Key, g.Val, w.Key, w.Val)
			if len(out) > 800 {
				break
			}
		}
	}
	if len(got.Entries) != len(want.Entries) {
		out += fmt.Sprintf("  %d entries, want %d\n", len(got.Entries), len(want.Entries))
	}
	return out
}

// TestScrubbedEvictionIsExchangeWork: when a scrubbed partial line leaves
// the scrub pipe as the last event of a flush, the combining bank itself is
// idle and only the node's exchange phase can drain the line. The node must
// report it as work, or fast-forward would jump past it.
func TestScrubbedEvictionIsExchangeWork(t *testing.T) {
	const rng = 64
	span := lineSpan(rng, 2)
	refs := []Ref{{Addr: span, Val: mem.I64(3)}, {Addr: span + 1, Val: mem.I64(4)}} // node 0 -> node 1
	run := func(legacy bool) (Result, stats.Snapshot, *System) {
		cfg := smallConfig(2, 1, span, true)
		cfg.Faults = fault.Config{Seed: 9, CSCorruptRate: 1}.WithDefaults() // every evicted partial line scrubs
		cfg.LegacyStepping = legacy
		s := New(cfg, mem.AddI64)
		return s.RunTrace(refs), s.StatsSnapshot(), s
	}
	fr, fs, s := run(false)
	lr, ls, _ := run(true)
	if fr.SumBacks == 0 {
		t.Fatalf("no partial line was summed back; the test is vacuous: %+v", fr)
	}
	if fr != lr {
		t.Fatalf("FF result %+v != legacy %+v", fr, lr)
	}
	if !reflect.DeepEqual(fs, ls) {
		t.Fatalf("FF counters diverge from legacy:\n%s", snapDiff(fs, ls))
	}
	verifyHistogram(t, s, refs, int(2*span))
}
