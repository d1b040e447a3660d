package differ

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"scatteradd/internal/exp"
	"scatteradd/internal/fault"
)

// figsUnderTest returns the figure set to diff: FFDIFF_FIGS narrows it for
// targeted CI jobs (comma-separated figure numbers), otherwise every figure.
func figsUnderTest(t *testing.T) []int {
	env := os.Getenv("FFDIFF_FIGS")
	if env == "" {
		return Figures
	}
	var figs []int
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			t.Fatalf("FFDIFF_FIGS=%q: %v", env, err)
		}
		figs = append(figs, n)
	}
	return figs
}

// scaleUnderTest returns the dataset scale divisor: FFDIFF_SCALE overrides
// the default of 8 (small enough to diff every figure in one test run,
// large enough that every component — caches, DRAM, network, combining
// stores — sees real traffic).
func scaleUnderTest(t *testing.T) int {
	env := os.Getenv("FFDIFF_SCALE")
	if env == "" {
		return 8
	}
	n, err := strconv.Atoi(env)
	if err != nil {
		t.Fatalf("FFDIFF_SCALE=%q: %v", env, err)
	}
	return n
}

// figScale bumps the dataset divisor for the kilo-node scale-out figure:
// the equivalence gates are scale-independent, and Fig. 14's 16-1024-node
// fabrics are an order of magnitude more simulation per reference than the
// paper-scale figures.
func figScale(fig, scale int) int {
	if fig == 14 {
		return scale * 8
	}
	return scale
}

// TestFastForwardEquivalence is the differential gate: every figure must
// produce byte-identical output — rendered table, raw counter snapshot,
// span reports — under quiescence fast-forward and legacy per-cycle
// stepping.
func TestFastForwardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate runs full figure suites")
	}
	scale := scaleUnderTest(t)
	for _, fig := range figsUnderTest(t) {
		fig := fig
		t.Run(fmt.Sprintf("fig%d", fig), func(t *testing.T) {
			t.Parallel()
			// Jobs: 1 inside each run — the figures under test already run
			// in parallel with each other here, and single-worker runs keep
			// any divergence deterministic to rerun.
			if err := Diff(fig, exp.Options{Scale: figScale(fig, scale), Jobs: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFastForwardJobsInvariance checks the fast-forward path composes with
// the parallel experiment runner: a multi-worker fast-forward run must be
// indistinguishable from a single-worker legacy run.
func TestFastForwardJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate runs full figure suites")
	}
	scale := scaleUnderTest(t)
	o := exp.Options{Scale: scale, CollectStats: true, CollectSpans: true}
	o.Legacy, o.Jobs = false, 4
	ff, err := Run(6, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Legacy, o.Jobs = true, 1
	legacy, err := Run(6, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(ff, legacy); err != nil {
		t.Fatalf("fig 6 at jobs=4 (fast-forward) vs jobs=1 (per-cycle): %v", err)
	}
}

// TestFastForwardEquivalenceWithFaults extends the differential gate to
// fault-injected runs: with every injector firing at the default chaos rate,
// fast-forward and per-cycle stepping must still be indistinguishable. This
// is the strongest form of the injectors' event-grain determinism contract —
// fault draws happen only at granted/issued/retired events, which both
// stepping modes execute identically. Fig. 6 covers the single-node memory
// system (DRAM stalls and windows, partial scrubs, FU retries); Fig. 13
// covers the multi-node link layer (drops, duplications, retries, dedup)
// and combining-store degradation; Fig. 14 covers the multi-hop fabrics'
// per-hop retransmit/dedup and in-switch combining under loss.
func TestFastForwardEquivalenceWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate runs full figure suites")
	}
	scale := scaleUnderTest(t) * 2 // chaos runs are slower; shrink the data
	for _, fig := range []int{6, 13, 14} {
		fig := fig
		t.Run(fmt.Sprintf("fig%d", fig), func(t *testing.T) {
			t.Parallel()
			o := exp.Options{Scale: scale, Jobs: 1, Faults: fault.DefaultChaos()}
			if err := Diff(fig, o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// shardedFigsUnderTest returns the figure set for the sharded gates: the
// multi-node figures (13 and 14) of figsUnderTest, since intra-run sharding
// partitions multi-node systems only. Under the race detector (with no
// explicit FFDIFF_FIGS) it narrows to Fig. 13: race instrumentation makes
// the sweeps ~10x slower, and Fig. 14 runs the same per-node worker pool.
// Fig. 14 runs un-instrumented in the regular test job and the
// topology-equivalence CI job.
func shardedFigsUnderTest(t *testing.T) []int {
	if raceEnabled && os.Getenv("FFDIFF_FIGS") == "" {
		return []int{13}
	}
	var figs []int
	for _, fig := range figsUnderTest(t) {
		if fig == 13 || fig == 14 {
			figs = append(figs, fig)
		}
	}
	return figs
}

// shardedScaleUnderTest shrinks the sharded gates' dataset under the race
// detector (unless FFDIFF_SCALE pins one): the shard pool crosses two
// channel hops per simulated cycle, which race instrumentation makes an
// order of magnitude slower. Byte-equivalence is scale-independent — the
// full-size sweep runs un-instrumented.
func shardedScaleUnderTest(t *testing.T) int {
	if raceEnabled && os.Getenv("FFDIFF_SCALE") == "" {
		return 32
	}
	return scaleUnderTest(t)
}

// TestShardedEquivalence is the shard scheduler's differential gate: every
// multi-node figure must produce byte-identical output — rendered table,
// raw counter snapshot, span reports — whether each simulation runs
// sequentially or with its per-node engines fanned across 2 or 4 worker
// shards.
func TestShardedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate runs full figure suites")
	}
	scale := shardedScaleUnderTest(t)
	for _, fig := range shardedFigsUnderTest(t) {
		for _, shards := range []int{2, 4} {
			fig, shards := fig, shards
			t.Run(fmt.Sprintf("fig%d/shards%d", fig, shards), func(t *testing.T) {
				t.Parallel()
				if err := DiffSharded(fig, shards, exp.Options{Scale: scale, Jobs: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestShardedEquivalenceLegacyStepping covers the other stepping mode: the
// sharded step wrapped in per-cycle stepping (no fast-forward) must also
// match its sequential twin on every multi-node figure.
func TestShardedEquivalenceLegacyStepping(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate runs full figure suites")
	}
	scale := shardedScaleUnderTest(t)
	for _, fig := range shardedFigsUnderTest(t) {
		fig := fig
		t.Run(fmt.Sprintf("fig%d", fig), func(t *testing.T) {
			t.Parallel()
			o := exp.Options{Scale: figScale(fig, scale), Jobs: 1, Legacy: true}
			if err := DiffSharded(fig, 4, o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedEquivalenceWithFaults is the hardest sharding gate: with every
// injector firing at the default chaos rate — link drops and duplications,
// retransmissions, dedup, combining-store scrubs and degradation — a
// 4-shard run must not move a byte relative to sequential. Fault draws key
// on (seed, component, event index), and the exchange/commit phases execute
// in canonical order in both modes, so any divergence means compute-phase
// state leaked across a shard boundary. Fig. 13 covers the multi-node link
// layer, Fig. 14 the multi-hop switch fabrics.
func TestShardedEquivalenceWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate runs full figure suites")
	}
	scale := shardedScaleUnderTest(t) * 2 // chaos runs are slower; shrink the data
	for _, fig := range shardedFigsUnderTest(t) {
		fig := fig
		t.Run(fmt.Sprintf("fig%d", fig), func(t *testing.T) {
			t.Parallel()
			o := exp.Options{Scale: figScale(fig, scale), Jobs: 1, Faults: fault.DefaultChaos()}
			if err := DiffSharded(fig, 4, o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunRejectsUnknownFigure covers the error path.
func TestRunRejectsUnknownFigure(t *testing.T) {
	if _, err := Run(99, exp.Options{Scale: 8}); err == nil {
		t.Fatal("Run(99) succeeded; want error")
	}
}
