package multinode

import (
	"fmt"
	"reflect"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// shardOutcome is everything observable from one replay: the throughput
// result, the full counter snapshot, and the aggregated span report. The
// sharded-determinism tests require all three to be identical at every
// shard count.
type shardOutcome struct {
	res    Result
	snap   stats.Snapshot
	report string
	values []mem.Word
}

func runSharded(t *testing.T, cfg Config, refs []Ref, rangeSize int) shardOutcome {
	t.Helper()
	s := New(cfg, mem.AddI64)
	tr := span.New(16)
	s.SetSpanTracer(tr)
	res := s.RunTrace(refs)
	if tr.Live() != 0 {
		t.Fatalf("shards=%d: %d live ops after drain", cfg.Shards, tr.Live())
	}
	addrs := make([]mem.Addr, rangeSize)
	for i := range addrs {
		addrs[i] = mem.Addr(i)
	}
	return shardOutcome{
		res:    res,
		snap:   s.StatsSnapshot(),
		report: span.Aggregate(tr.Ops()).Format(""),
		values: s.ReadResult(addrs),
	}
}

// shardConfigs is the matrix the determinism tests sweep: both network
// modes, both stepping modes, fault-free and DefaultChaos, direct and
// (hierarchical) combining.
func shardConfigs() map[string]Config {
	const rng = 1024
	cfgs := make(map[string]Config)
	for _, legacy := range []bool{false, true} {
		for _, faults := range []bool{false, true} {
			name := fmt.Sprintf("legacy=%v/faults=%v", legacy, faults)
			direct := smallConfig(4, 2, rng/4, false)
			direct.LegacyStepping = legacy
			comb := smallConfig(4, 2, rng/4, true)
			comb.LegacyStepping = legacy
			hier := smallConfig(4, 2, rng/4, true)
			hier.Topology = Hypercube()
			hier.LegacyStepping = legacy
			if faults {
				direct.Faults = fault.DefaultChaos()
				comb.Faults = fault.DefaultChaos()
				hier.Faults = fault.DefaultChaos()
			}
			cfgs["direct/"+name] = direct
			cfgs["combining/"+name] = comb
			cfgs["hierarchical/"+name] = hier
		}
	}
	return cfgs
}

// TestShardedByteIdentical is the core tentpole gate at the multinode
// layer: replaying the same trace with 1, 2, 3, and 4 shards produces the
// same result struct, the same counter snapshot entry for entry, the same
// span report, and the same final memory — in both stepping modes, with
// and without chaos faults, in every network mode.
func TestShardedByteIdentical(t *testing.T) {
	const rng = 1024
	refs := uniformTrace(4096, rng, 11)
	for name, cfg := range shardConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Shards = 1
			want := runSharded(t, cfg, refs, rng)
			for _, shards := range []int{2, 3, 4, 8} {
				cfg.Shards = shards
				got := runSharded(t, cfg, refs, rng)
				if got.res != want.res {
					t.Fatalf("shards=%d result diverged:\n got %+v\nwant %+v", shards, got.res, want.res)
				}
				if !reflect.DeepEqual(got.snap, want.snap) {
					t.Fatalf("shards=%d counter snapshot diverged", shards)
				}
				if got.report != want.report {
					t.Fatalf("shards=%d span report diverged:\n%s\nvs\n%s", shards, got.report, want.report)
				}
				if !reflect.DeepEqual(got.values, want.values) {
					t.Fatalf("shards=%d final memory diverged", shards)
				}
			}
		})
	}
}

// TestShardedMatchesReference checks the sharded path still computes the
// right histogram (not just the same one as shards=1).
func TestShardedMatchesReference(t *testing.T) {
	const rng = 2048
	refs := uniformTrace(8192, rng, 7)
	for _, combining := range []bool{false, true} {
		cfg := smallConfig(4, 2, rng/4, combining)
		cfg.Shards = 4
		s := New(cfg, mem.AddI64)
		res := s.RunTrace(refs)
		if res.Adds != uint64(len(refs)) || res.Cycles == 0 {
			t.Fatalf("combining=%v result: %+v", combining, res)
		}
		verifyHistogram(t, s, refs, rng)
	}
}

// TestShardedDegradeIdentical pins the staged (compute-detect,
// commit-apply) degradation path: a fault config aggressive enough to trip
// combining-to-direct fallback must degrade the same node count and yield
// the same counters at every shard width.
func TestShardedDegradeIdentical(t *testing.T) {
	const rng = 1024
	refs := uniformTrace(8192, rng, 5)
	base := smallConfig(4, 2, rng/4, true)
	base.Faults = fault.DefaultChaos()
	base.Faults.CSCorruptRate = 0.2 // scrub storm
	base.Faults.DegradeThreshold = 8
	base.Shards = 1
	want := runSharded(t, base, refs, rng)
	if want.res.Degraded == 0 {
		t.Fatalf("config did not degrade any node; test is vacuous: %+v", want.res)
	}
	for _, shards := range []int{2, 4} {
		cfg := base
		cfg.Shards = shards
		got := runSharded(t, cfg, refs, rng)
		if got.res != want.res {
			t.Fatalf("shards=%d degrade outcome diverged:\n got %+v\nwant %+v", shards, got.res, want.res)
		}
		if !reflect.DeepEqual(got.snap, want.snap) {
			t.Fatalf("shards=%d counter snapshot diverged", shards)
		}
	}
}

// TestShardsClamped checks out-of-range shard counts normalize instead of
// panicking: <= 0 behaves as 1, > Nodes clamps to Nodes.
func TestShardsClamped(t *testing.T) {
	const rng = 512
	refs := uniformTrace(1024, rng, 3)
	want := runSharded(t, smallConfig(2, 1, rng/2, false), refs, rng)
	for _, shards := range []int{-1, 0, 7} {
		cfg := smallConfig(2, 1, rng/2, false)
		cfg.Shards = shards
		got := runSharded(t, cfg, refs, rng)
		if got.res != want.res {
			t.Fatalf("Shards=%d result diverged: %+v vs %+v", shards, got.res, want.res)
		}
	}
}

// TestShardedRace is the dedicated -race exercise of the parallel compute
// phase on a small Fig 13 style configuration: 8 nodes, 4 shards, spans
// on, faults on, fast-forward on — the maximal set of concurrently active
// machinery. Correctness of the output is covered above; this test exists
// so the race detector sweeps every cross-shard edge.
func TestShardedRace(t *testing.T) {
	const rng = 2048
	refs := uniformTrace(8192, rng, 13)
	for _, combining := range []bool{false, true} {
		cfg := smallConfig(8, 2, rng/8, combining)
		cfg.Shards = 4
		cfg.Faults = fault.DefaultChaos()
		s := New(cfg, mem.AddI64)
		s.SetSpanTracer(span.New(8))
		res := s.RunTrace(refs)
		if res.Adds != uint64(len(refs)) {
			t.Fatalf("combining=%v short replay: %+v", combining, res)
		}
		verifyHistogram(t, s, refs, rng)
	}
}
