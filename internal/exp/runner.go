package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the experiment orchestrator: every figure's independent
// (workload, machine) runs are fanned out across a bounded worker pool.
//
// The paper's evaluation is embarrassingly parallel across configurations —
// each point of each figure builds its own machine.Machine and its own (or a
// cloned) workload, so runs share no mutable state. Determinism is by
// construction, not by scheduling: task i writes only results[i], and the
// caller assembles table rows in index order, so the rendered output is
// byte-identical for any worker count (see TestReportDeterministicAcrossJobs).
//
// Workers pull task indices from an atomic counter (work stealing), which
// load-balances the very uneven run costs (a 4M-bin histogram next to a
// 16-bin one) without affecting output order. A panic inside a task — e.g. a
// mustVerify failure — is captured and re-raised on the calling goroutine so
// figure generation fails loudly exactly as in the sequential path.

// jobs returns the effective worker count: Options.Jobs when positive,
// otherwise GOMAXPROCS (one worker per available CPU). Jobs = 1 reproduces
// the historical sequential behavior on the caller's goroutine.
func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// AutoShards picks an intra-run shard width for the multi-node runs of a
// pool of jobs concurrent runs. Sharding pays only when each run gets
// several cores: below 4 CPUs per job the per-cycle barrier costs more than
// the parallel compute saves (measured on 2 CPUs, 4 shards ran Fig 13
// 1.0-1.3x slower), so the policy returns 1 — the width the >=2x speedup
// gates require is 4. With 4 or more CPUs per job it takes them all, bounded
// at 8, and reined in to 2 for heavily scaled-down runs whose short cycles
// amortize the barrier less. Sharding never changes output (internal/differ
// enforces byte-identity), so the policy is purely a throughput heuristic.
// Exposed so CLIs can log the width "-shards auto" resolved to.
func AutoShards(jobs, scale int) int {
	if jobs < 1 {
		jobs = 1
	}
	per := runtime.NumCPU() / jobs
	if per < 4 {
		return 1
	}
	if per > 8 {
		per = 8
	}
	if scale > 4 {
		per = 2
	}
	return per
}

// shards resolves Options.Shards to the width handed to multinode configs:
// 0 picks automatically, anything else passes through.
func (o Options) shards() int {
	if o.Shards != 0 {
		return o.Shards
	}
	return AutoShards(o.jobs(), o.Scale)
}

// taskPanic is one captured task panic, tagged with its index and worker
// stack so forEach can re-raise deterministically.
type taskPanic struct {
	index int
	val   any
	stack []byte
}

// forEach runs fn(i) for every i in [0, n) on up to o.jobs() workers and
// returns once all calls completed. fn must confine its writes to per-index
// state. If any calls panic, the panic of the lowest index is re-raised
// here after the pool drains (with that task's captured stack) — not
// whichever worker reached the recover first — so a mustVerify failure
// reports the same task at any worker count.
func (o Options) forEach(n int, fn func(int)) {
	var completed atomic.Int64
	note := func() {
		if o.Progress != nil {
			o.Progress(int(completed.Add(1)), n)
		}
	}
	workers := o.jobs()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
			note()
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panics  []taskPanic
	)
	// ok reports whether the task completed; a panicked task must not count
	// as progress — the sequential path never reaches note() for it either,
	// so Progress observes the same done counts at any worker count.
	runOne := func(i int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				panics = append(panics, taskPanic{index: i, val: r, stack: debug.Stack()})
				panicMu.Unlock()
			}
		}()
		fn(i)
		return true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if runOne(i) {
					note()
				}
			}
		}()
	}
	wg.Wait()
	if len(panics) > 0 {
		first := panics[0]
		for _, p := range panics[1:] {
			if p.index < first.index {
				first = p
			}
		}
		panic(fmt.Sprintf("exp: task %d: %v\n\ntask stack:\n%s", first.index, first.val, first.stack))
	}
}

// mapN fans fn out across the worker pool and collects the results indexed
// by input position, preserving input order regardless of scheduling.
func mapN[T any](o Options, n int, fn func(int) T) []T {
	out := make([]T, n)
	o.forEach(n, func(i int) { out[i] = fn(i) })
	return out
}
