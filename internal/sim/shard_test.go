package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestShardPoolRunsEveryShard(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		p := NewShardPool(n)
		if p.Shards() != n {
			t.Fatalf("Shards() = %d, want %d", p.Shards(), n)
		}
		hits := make([]int32, n)
		for round := 0; round < 50; round++ {
			p.Run(func(s int) { atomic.AddInt32(&hits[s], 1) })
		}
		p.Close()
		for s, h := range hits {
			if h != 50 {
				t.Fatalf("n=%d shard %d ran %d times, want 50", n, s, h)
			}
		}
	}
}

func TestShardPoolClampsWidth(t *testing.T) {
	for _, n := range []int{-3, 0} {
		p := NewShardPool(n)
		if p.Shards() != 1 {
			t.Fatalf("NewShardPool(%d).Shards() = %d, want 1", n, p.Shards())
		}
		p.Close()
	}
}

func TestShardPoolRunIsABarrier(t *testing.T) {
	p := NewShardPool(4)
	defer p.Close()
	var phase atomic.Int32
	for round := int32(1); round <= 20; round++ {
		p.Run(func(s int) {
			// Every shard must observe the phase value of the current round:
			// if Run returned before all shards of the previous round
			// finished, a straggler would read a later phase.
			if got := phase.Load(); got != round-1 {
				t.Errorf("round %d shard %d saw phase %d", round, s, got)
			}
		})
		phase.Store(round)
	}
}

func TestShardPoolInlineWhenSingle(t *testing.T) {
	p := NewShardPool(1)
	defer p.Close()
	marker := 0
	p.Run(func(s int) {
		if s != 0 {
			t.Fatalf("inline shard index = %d, want 0", s)
		}
		marker = 1
	})
	if marker != 1 {
		t.Fatal("inline Run did not execute fn")
	}
	// Inline pools must not require goroutines: this would deadlock on a
	// worker pool of size 1 if Run dispatched through a channel with no
	// reader (Close already called below would close a nil channel).
	p.Close() // idempotent
	p.Close()
}

func TestShardPoolPanicLowestShardWins(t *testing.T) {
	// All shards panic; Run must re-raise shard 0's panic regardless of
	// which worker got scheduled first, so failures reproduce identically
	// at any worker count.
	for trial := 0; trial < 10; trial++ {
		p := NewShardPool(4)
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			p.Run(func(s int) {
				panic(fmt.Sprintf("boom-%d", s))
			})
		}()
		p.Close()
		msg, ok := recovered.(string)
		if !ok {
			t.Fatalf("recovered %T, want string", recovered)
		}
		if !strings.Contains(msg, "shard 0: boom-0") {
			t.Fatalf("panic = %q, want lowest shard (0)", msg)
		}
		if !strings.Contains(msg, "shard stack:") {
			t.Fatalf("panic %q carries no captured stack", msg)
		}
	}
}

func TestShardPoolPanicDoesNotPoisonPool(t *testing.T) {
	p := NewShardPool(2)
	defer p.Close()
	func() {
		defer func() { recover() }()
		p.Run(func(s int) {
			if s == 1 {
				panic("transient")
			}
		})
	}()
	// The pool must stay usable after a recovered shard panic.
	var ran atomic.Int32
	p.Run(func(int) { ran.Add(1) })
	if ran.Load() != 2 {
		t.Fatalf("post-panic Run executed %d shards, want 2", ran.Load())
	}
}

func TestShardPoolInlinePanicPassesThrough(t *testing.T) {
	p := NewShardPool(1)
	defer p.Close()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.Run(func(int) { panic("inline") })
	}()
	if recovered != "inline" {
		t.Fatalf("inline pool wrapped the panic: %v", recovered)
	}
}

func TestShardPoolRunAfterClosePanics(t *testing.T) {
	p := NewShardPool(2)
	p.Close()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.Run(func(int) {})
	}()
	if recovered == nil {
		t.Fatal("Run after Close did not panic")
	}
}

func TestShardRanges(t *testing.T) {
	cases := []struct {
		n, k int
		want [][2]int
	}{
		{8, 4, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
		{7, 4, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 7}}},
		{5, 2, [][2]int{{0, 3}, {3, 5}}},
		{4, 1, [][2]int{{0, 4}}},
		{2, 4, [][2]int{{0, 1}, {1, 2}}}, // k clamped to n
		{3, 0, [][2]int{{0, 3}}},         // k clamped to 1
		{0, 4, nil},                      // nothing to shard: no ranges at all
		{0, 0, nil},
		{-2, 3, nil},
		{1, 1, [][2]int{{0, 1}}},
		{1, 8, [][2]int{{0, 1}}},                         // one group, many shards: one range
		{9, 4, [][2]int{{0, 3}, {3, 5}, {5, 7}, {7, 9}}}, // odd split: remainder spread from shard 0
		{5, 3, [][2]int{{0, 2}, {2, 4}, {4, 5}}},
	}
	for _, c := range cases {
		got := ShardRanges(c.n, c.k)
		if len(got) != len(c.want) {
			t.Fatalf("ShardRanges(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ShardRanges(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
			}
		}
		// Contiguity, coverage, and non-emptiness invariants, independent of
		// the table: an empty range would spawn a barrier participant with
		// nothing to do.
		prev := 0
		for _, r := range got {
			if r[0] != prev || r[1] <= r[0] {
				t.Fatalf("ShardRanges(%d,%d) has an empty or non-contiguous range: %v", c.n, c.k, got)
			}
			prev = r[1]
		}
		want := c.n
		if want < 0 {
			want = 0
		}
		if prev != want {
			t.Fatalf("ShardRanges(%d,%d) covers %d of %d", c.n, c.k, prev, want)
		}
	}
}
