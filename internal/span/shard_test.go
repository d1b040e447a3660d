package span

import (
	"testing"

	"scatteradd/internal/mem"
)

func TestTransferMovesLiveOp(t *testing.T) {
	a := New(1)
	b := New(1)
	a.OpBegin(0, 7, mem.AddF64, 0x40, 10)
	a.OpStage(0, 7, StageNet, 12)
	a.Transfer(b, 0, 7)
	if a.Live() != 0 || b.Live() != 1 {
		t.Fatalf("live after transfer: a=%d b=%d, want 0/1", a.Live(), b.Live())
	}
	if !b.Sampled(0, 7) {
		t.Fatal("transferred op not live in destination")
	}
	// The destination must continue the same lifecycle, transitions intact.
	b.OpStage(0, 7, StageBankQ, 15)
	b.OpEnd(0, 7, 20)
	ops := b.Ops()
	if len(ops) != 1 {
		t.Fatalf("dst completed %d ops, want 1", len(ops))
	}
	op := ops[0]
	if op.Start != 10 || op.End != 20 || len(op.Trans) != 3 {
		t.Fatalf("transferred lifecycle corrupted: %+v", op)
	}
	if op.Trans[1].Stage != StageNet || op.Trans[2].Stage != StageBankQ {
		t.Fatalf("transitions lost across transfer: %+v", op.Trans)
	}
}

func TestTransferNoopCases(t *testing.T) {
	a := New(1)
	b := New(1)
	a.Transfer(b, 0, 99) // not live: no-op
	if a.Live() != 0 || b.Live() != 0 {
		t.Fatal("transfer of unsampled id changed state")
	}
	a.OpBegin(0, 1, mem.AddF64, 0, 0)
	a.Transfer(a, 0, 1) // self-transfer: no-op
	if !a.Sampled(0, 1) {
		t.Fatal("self-transfer dropped the op")
	}
	var nilT *Tracer
	nilT.Transfer(a, 0, 1) // nil receiver: no-op
	a.Transfer(nil, 0, 1)  // nil destination: no-op
	if !a.Sampled(0, 1) {
		t.Fatal("nil-destination transfer dropped the op")
	}
}

func TestAbsorbMergesAndEmptiesSource(t *testing.T) {
	master := New(1)
	shard := New(1)
	master.OpBegin(0, 1, mem.AddF64, 0x10, 0)
	master.OpEnd(0, 1, 5)
	master.Span("m", "a", 0, 1)
	shard.OpBegin(1, 2, mem.Read, 0x20, 2)
	shard.OpEnd(1, 2, 9)
	shard.SpanAsync("s", "b", 2, 4)
	shard.OpBegin(1, 3, mem.AddF64, 0x30, 4) // still live
	master.Absorb(shard)
	if got := len(master.Ops()); got != 2 {
		t.Fatalf("master has %d ops after absorb, want 2", got)
	}
	if got := len(master.Events()); got != 2 {
		t.Fatalf("master has %d events after absorb, want 2", got)
	}
	if master.Live() != 1 || !master.Sampled(1, 3) {
		t.Fatal("live op not migrated by absorb")
	}
	if len(shard.Ops()) != 0 || len(shard.Events()) != 0 || shard.Live() != 0 {
		t.Fatal("absorb left state in the source tracer")
	}
	// The live op must be completable on the absorbing tracer.
	master.OpEnd(1, 3, 12)
	if master.Live() != 0 || len(master.Ops()) != 3 {
		t.Fatal("absorbed live op cannot complete")
	}
}

func TestAbsorbNoopCases(t *testing.T) {
	a := New(1)
	a.OpBegin(0, 1, mem.AddF64, 0, 0)
	a.OpEnd(0, 1, 1)
	a.Absorb(a) // self-absorb must not duplicate
	if len(a.Ops()) != 1 {
		t.Fatalf("self-absorb duplicated ops: %d", len(a.Ops()))
	}
	var nilT *Tracer
	nilT.Absorb(a) // nil receiver: no-op, a keeps its data
	if len(a.Ops()) != 1 {
		t.Fatal("absorb into nil receiver drained the source")
	}
	a.Absorb(nil) // nil source: no-op
	if len(a.Ops()) != 1 {
		t.Fatal("nil-source absorb changed state")
	}
}

// TestAbsorbedAggregateMatchesSingleTracer is the report-equivalence
// property the sharded multinode path relies on: ops collected by several
// shard tracers and absorbed aggregate to the exact Report a single tracer
// would have produced, regardless of absorb order.
func TestAbsorbedAggregateMatchesSingleTracer(t *testing.T) {
	single := New(1)
	shards := []*Tracer{New(1), New(1), New(1)}
	for i := 0; i < 30; i++ {
		node := i % 3
		id := uint64(i)
		start := uint64(i)
		end := start + uint64(5+i%7)
		for _, tr := range []*Tracer{single, shards[node]} {
			tr.OpBegin(node, id, mem.AddF64, mem.Addr(i*8), start)
			tr.OpStage(node, id, StageFU, start+2)
			tr.OpEnd(node, id, end)
		}
	}
	master := New(1)
	// Absorb in reverse order to prove order-insensitivity of the report.
	for i := len(shards) - 1; i >= 0; i-- {
		master.Absorb(shards[i])
	}
	got := Aggregate(master.Ops())
	want := Aggregate(single.Ops())
	if got.Ops != want.Ops || got.Mean != want.Mean || got.P50 != want.P50 || got.P99 != want.P99 {
		t.Fatalf("aggregate diverged: got %+v want %+v", got, want)
	}
	if got.Format("") != want.Format("") {
		t.Fatalf("formatted reports diverged:\n%s\nvs\n%s", got.Format(""), want.Format(""))
	}
}
