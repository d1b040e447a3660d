package multinode

import (
	"testing"

	"scatteradd/internal/mem"
	"scatteradd/internal/workload"
)

// fig13Bench replays one large Figure 13 style run — 8 nodes, high network
// bandwidth, direct remote scatter-add — at the given shard count. One
// System per iteration, like the experiment driver.
func fig13Bench(b *testing.B, shards int) {
	b.Helper()
	const (
		nodes = 8
		rng   = 1 << 15
		adds  = 1 << 17
	)
	cfg := DefaultConfig(nodes, 8, rng/nodes)
	cfg.Shards = shards
	refs := uniformTrace(adds, rng, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(cfg, mem.AddI64)
		res := s.RunTrace(refs)
		if res.Adds != adds {
			b.Fatalf("short replay: %+v", res)
		}
	}
}

// BenchmarkFig13Shard1 is the sequential twin of BenchmarkFig13Sharded:
// the same run through the same two-phase step with the worker pool off.
func BenchmarkFig13Shard1(b *testing.B) { fig13Bench(b, 1) }

// BenchmarkFig13Sharded runs the same simulation with the per-node compute
// phase spread over 4 shards. benchgate compares its median against
// BenchmarkFig13Shard1 on multi-core runners (differ proves the outputs
// byte-identical, so the delta is pure wall-clock).
func BenchmarkFig13Sharded(b *testing.B) { fig13Bench(b, 4) }

// fig13TreeBench replays the same Figure 13 style run on a fan-in-4
// fat-tree with in-switch combining — 16 nodes so the tree has real depth —
// at the given shard count.
func fig13TreeBench(b *testing.B, shards int) {
	b.Helper()
	const (
		nodes = 16
		rng   = 1 << 15
		adds  = 1 << 17
	)
	cfg := DefaultConfig(nodes, 8, rng/nodes)
	cfg.Topology = Tree(4, true)
	cfg.Shards = shards
	refs := uniformTrace(adds, rng, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(cfg, mem.AddI64)
		res := s.RunTrace(refs)
		if res.Adds != adds {
			b.Fatalf("short replay: %+v", res)
		}
	}
}

// BenchmarkFig13Tree1 is the sequential twin of BenchmarkFig13TreeSharded:
// the multi-hop fat-tree fabric with the worker pool off.
func BenchmarkFig13Tree1(b *testing.B) { fig13TreeBench(b, 1) }

// BenchmarkFig13TreeSharded runs the same tree-fabric simulation with the
// per-node compute phase spread over 4 shards. benchgate compares its
// median against BenchmarkFig13Tree1 on multi-core runners (the topology
// differ tests prove the outputs byte-identical, so the delta is pure
// wall-clock).
func BenchmarkFig13TreeSharded(b *testing.B) { fig13TreeBench(b, 4) }

// BenchmarkEngineSharded8Nodes isolates the steady-state step loop (no
// construction) at both shard widths via sub-benchmarks.
func BenchmarkEngineSharded8Nodes(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(map[int]string{1: "shards=1", 4: "shards=4"}[shards], func(b *testing.B) {
			const (
				nodes = 8
				rng   = 1 << 14
				adds  = 1 << 15
			)
			cfg := DefaultConfig(nodes, 8, rng/nodes)
			cfg.Shards = shards
			refs := uniformTrace(adds, rng, 23)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := New(cfg, mem.AddI64)
				s.RunTrace(refs)
			}
		})
	}
}

// BenchmarkFabricHotOwner replays Fig 14's hot histogram — 8K references,
// 64 to each of 128 bins, owned by the first 16 of 256 trimmed nodes — on
// the cache-combining crossbar and the combining fat-tree. Most nodes idle
// behind the owners for most of the run, so the cost per cycle tracks how
// cheaply the step loop passes over idle nodes.
func BenchmarkFabricHotOwner(b *testing.B) {
	const (
		nodes = 256
		bins  = 128
		refs  = 8192
	)
	span := (mem.Addr(bins)/nodes + mem.LineWords) &^ (mem.LineWords - 1)
	trace := make([]Ref, refs)
	for i := range trace {
		trace[i] = Ref{Addr: mem.Addr(i % bins), Val: mem.I64(1)}
	}
	rng := workload.NewRNG(14)
	for i := len(trace) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		trace[i], trace[j] = trace[j], trace[i]
	}
	for _, topology := range []string{"flat+comb", "tree+comb"} {
		b.Run(topology, func(b *testing.B) {
			cfg := hotOwnerConfig(b, topology, nodes, span)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := New(cfg, mem.AddI64)
				if res := s.RunTrace(trace); res.Adds != refs {
					b.Fatalf("short replay: %+v", res)
				}
			}
		})
	}
}
