package exp

import (
	"runtime"
	"testing"

	"scatteradd/internal/fault"
)

// TestReportDeterministicAcrossShards mirrors TestReportDeterministicAcrossJobs
// for intra-run sharding: multi-node figures must render byte-identically
// whether each simulation runs sequentially or with its per-node engines
// fanned across 2 or 4 shards, with the counter and span appendices attached
// so the whole observable surface is compared. Small scales keep this
// affordable under -race; the multinode package pins byte-identity
// exhaustively at the system level, so this test only needs enough data to
// prove the exp-layer plumbing (options, appendices, checkpointing) is
// shard-clean. Fig13 runs the full {1,2,4} matrix; the hierarchical ablation
// — whose only shard-relevant surface is its cfg.Shards wiring — is checked
// at 4 shards alone.
func TestReportDeterministicAcrossShards(t *testing.T) {
	for _, tc := range []struct {
		fig    func(Options) Table
		scale  int
		shards []int
	}{
		{Fig13, 256, []int{2, 4}},
		{AblationHierarchical, 256, []int{4}},
	} {
		base := Options{Scale: tc.scale, Jobs: 2, CollectStats: true, CollectSpans: true, Shards: 1}
		want := tc.fig(base)
		for _, shards := range tc.shards {
			o := base
			o.Shards = shards
			if got := tc.fig(o); got.String() != want.String() {
				t.Fatalf("%s: rendering differs between Shards=1 and Shards=%d:\n%s\nvs\n%s",
					want.Title, shards, got.String(), want.String())
			}
		}
	}
}

// TestAutoShardsPolicy pins the automatic width rules: never below 1, 1
// whenever a job would get fewer than 4 CPUs, never past the widest useful
// partition, narrowed for scaled-down runs, and the default
// one-worker-per-CPU pool leaves nothing over.
func TestAutoShardsPolicy(t *testing.T) {
	cpus := runtime.NumCPU()
	if got := AutoShards(cpus, 1); got != 1 {
		t.Errorf("AutoShards(NumCPU, 1) = %d, want 1 (saturated job pool)", got)
	}
	if got := AutoShards(1, 1); got < 1 || got > 8 {
		t.Errorf("AutoShards(1, 1) = %d, want within [1, 8]", got)
	}
	if got := AutoShards(0, 1); got != AutoShards(1, 1) {
		t.Errorf("AutoShards(0, 1) = %d, want the jobs<1 clamp to match jobs=1", got)
	}
	// Fewer than 4 CPUs per job: sharding is a measured slowdown there.
	for jobs := 1; jobs <= cpus; jobs++ {
		if cpus/jobs < 4 {
			if got := AutoShards(jobs, 1); got != 1 {
				t.Errorf("AutoShards(%d, 1) = %d on %d CPUs, want 1 below 4 CPUs per job", jobs, got, cpus)
			}
		} else if got := AutoShards(jobs, 1); got < 4 {
			t.Errorf("AutoShards(%d, 1) = %d on %d CPUs, want >= 4 with %d CPUs per job", jobs, got, cpus, cpus/jobs)
		}
	}
	if cpus >= 4 {
		if got := AutoShards(1, 8); got > 2 {
			t.Errorf("AutoShards(1, scale 8) = %d, want <= 2 (small-run guard)", got)
		}
	}
	// Options.Shards = 0 resolves through the same policy; non-zero passes.
	if got := (Options{Shards: 3}).shards(); got != 3 {
		t.Errorf("Options{Shards: 3}.shards() = %d, want 3", got)
	}
	o := Options{Jobs: 1, Scale: 1}
	if got, want := o.shards(), AutoShards(1, 1); got != want {
		t.Errorf("auto Options.shards() = %d, want %d", got, want)
	}
}

// TestFaultedFigureDeterministicAcrossShards: the fault schedule is a pure
// function of (seed, component, event index), so even a chaos-faulted run —
// retransmissions, dedup, degradations and all — must not move a byte when
// the node compute fans out across shards.
func TestFaultedFigureDeterministicAcrossShards(t *testing.T) {
	run := func(shards int) string {
		o := Options{Scale: 256, Jobs: 2, Shards: shards, Faults: fault.DefaultChaos()}
		return Fig13(o).String()
	}
	want := run(1)
	if got := run(4); got != want {
		t.Fatal("faulted Fig13 output depends on shard count")
	}
}

// TestLegacySteppingDeterministicAcrossShards covers the remaining stepping
// mode: per-cycle stepping (no fast-forward) through the sharded two-phase
// step.
func TestLegacySteppingDeterministicAcrossShards(t *testing.T) {
	run := func(shards int) string {
		return Fig13(Options{Scale: 256, Jobs: 2, Shards: shards, Legacy: true}).String()
	}
	if run(1) != run(4) {
		t.Fatal("legacy-stepping Fig13 output depends on shard count")
	}
}

// TestFig13ShardedRace is the exp-level -race exercise of the sharded path:
// a small Fig 13 with shards, jobs, spans, and faults all active at once,
// so the race detector sees the worker pool inside the worker pool.
func TestFig13ShardedRace(t *testing.T) {
	o := Options{Scale: 512, Jobs: 4, Shards: 4, CollectSpans: true, Faults: fault.DefaultChaos()}
	if tab := Fig13(o); len(tab.Rows) == 0 {
		t.Fatal("empty sharded Fig13")
	}
}
