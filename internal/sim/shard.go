package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// ShardPool is the intra-simulation shard scheduler: a fixed set of
// persistent workers that execute one phase function per shard and barrier
// before returning. It exists so a single large simulation can partition its
// component groups (the multinode system partitions per-node engines) across
// cores *between* deterministic exchange points: the caller runs the
// communication phase of a cycle sequentially, then fans the compute phase
// out with Run, and the barrier guarantees no shard can observe another
// shard's next cycle.
//
// Determinism is the caller's contract: phase functions handed to Run must
// confine their writes to shard-private state (Run provides no ordering
// between shards within a phase). Under that contract the pool adds no
// observable behavior — output is byte-identical to calling fn(0..n-1) in a
// loop, which is exactly what a 1-shard pool does.
//
// A pool with n <= 1 starts no goroutines and Run calls fn(0) inline, so the
// sequential path pays nothing. Close releases the workers; a pool is meant
// to live for one simulation run (construct, Run per cycle, Close).
type ShardPool struct {
	n       int
	work    chan func(int)
	wg      sync.WaitGroup // in-flight phase calls of the current Run
	workers sync.WaitGroup // live worker goroutines, for Close
	closed  bool

	mu     sync.Mutex
	panics []shardPanic // captured phase panics, re-raised by Run
}

// shardPanic is one captured phase panic, tagged with its shard so Run can
// re-raise the lowest-numbered one regardless of scheduling.
type shardPanic struct {
	shard int
	val   any
	stack []byte
}

// NewShardPool returns a pool of n shards. n <= 1 yields an inline pool with
// no goroutines; otherwise n persistent workers start immediately.
func NewShardPool(n int) *ShardPool {
	if n < 1 {
		n = 1
	}
	p := &ShardPool{n: n}
	if n == 1 {
		return p
	}
	p.work = make(chan func(int), n)
	p.workers.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer p.workers.Done()
			for fn := range p.work {
				fn(0) // shard index is bound into the closure; arg unused
			}
		}()
	}
	return p
}

// runShard runs one shard's phase call, capturing a panic for later re-raise.
func (p *ShardPool) runShard(fn func(int), s int) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			p.panics = append(p.panics, shardPanic{shard: s, val: r, stack: debug.Stack()})
			p.mu.Unlock()
		}
	}()
	fn(s)
}

// raise re-raises the lowest-shard captured panic, if any. Callers reach it
// only after the barrier, so p.panics needs no lock here.
func (p *ShardPool) raise() {
	if len(p.panics) == 0 {
		return
	}
	first := p.panics[0]
	for _, sp := range p.panics[1:] {
		if sp.shard < first.shard {
			first = sp
		}
	}
	p.panics = nil
	panic(fmt.Sprintf("sim: shard %d: %v\n\nshard stack:\n%s", first.shard, first.val, first.stack))
}

// Shards reports the pool width.
func (p *ShardPool) Shards() int { return p.n }

// Run executes fn(shard) for every shard in [0, n) and returns when all
// completed (the barrier). With one shard it is exactly fn(0) on the calling
// goroutine. If any shard panics, Run re-raises the panic of the
// lowest-numbered panicking shard (with its captured stack) after the
// barrier, so a failure reproduces identically at any worker count.
func (p *ShardPool) Run(fn func(shard int)) {
	if p.n == 1 {
		fn(0)
		return
	}
	if p.closed {
		panic("sim: ShardPool.Run after Close")
	}
	p.wg.Add(p.n)
	for s := 0; s < p.n; s++ {
		s := s
		p.work <- func(int) {
			defer p.wg.Done()
			p.runShard(fn, s)
		}
	}
	p.wg.Wait()
	p.raise()
}

// Close stops the workers. The pool must not be mid-Run; Run panics after
// Close. Closing an inline (1-shard) pool is a no-op. Close is idempotent.
func (p *ShardPool) Close() {
	if p.n == 1 || p.closed {
		p.closed = true
		return
	}
	p.closed = true
	close(p.work)
	p.workers.Wait()
}

// ShardRanges partitions n items into k contiguous [start, end) ranges with
// sizes differing by at most one (the canonical group->shard assignment: the
// partition is a pure function of (n, k), so every run shards identically).
//
// The returned slice never contains an empty range: k is clamped to [1, n],
// so fewer groups than shards yields fewer (single-group) ranges rather than
// empty trailing ones — callers size their barrier pool by len(ranges), and
// an empty range must not spawn a barrier participant with nothing to do.
// n <= 0 returns nil (nothing to shard, no pool).
func ShardRanges(n, k int) [][2]int {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	ranges := make([][2]int, 0, k)
	for s, start := 0, 0; s < k; s++ {
		size := n / k
		if s < n%k {
			size++
		}
		ranges = append(ranges, [2]int{start, start + size})
		start += size
	}
	return ranges
}
