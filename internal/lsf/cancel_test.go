package lsf

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
)

func TestCancelCheckNilAndBackground(t *testing.T) {
	var cc *CancelCheck
	if cc.Check() || cc.Err() != nil {
		t.Fatal("nil CancelCheck must never cancel")
	}
	if got := NewCancelCheck(nil); got != nil {
		t.Fatalf("NewCancelCheck(nil) = %v, want nil", got)
	}
	// Background has a nil Done channel: the checkpoint collapses to the
	// free nil case.
	if got := NewCancelCheck(context.Background()); got != nil {
		t.Fatalf("NewCancelCheck(Background) = %v, want nil", got)
	}
}

func TestCancelCheckTripsWithinStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cc := NewCancelCheck(ctx)
	if cc == nil {
		t.Fatal("cancelable context must yield a checkpoint")
	}
	for i := 0; i < 2*cancelStride; i++ {
		if cc.Check() {
			t.Fatalf("tripped before cancellation (call %d)", i)
		}
	}
	cancel()
	tripped := false
	for i := 0; i < cancelStride+1; i++ {
		if cc.Check() {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("checkpoint did not trip within one stride of cancellation")
	}
	if !errors.Is(cc.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", cc.Err())
	}
	// Once tripped, stays tripped on the first call.
	if !cc.Check() {
		t.Fatal("tripped checkpoint reported un-canceled")
	}
}

// TestStopCheck: a stop flag trips the checkpoint within one stride with
// ErrStopped — on the no-deadline path too, where NewCancelCheck is nil
// — and a context that ends first still reports the context's error.
func TestStopCheck(t *testing.T) {
	var stop atomic.Bool
	cc := NewStopCheck(context.Background(), &stop)
	for i := 0; i < 2*cancelStride; i++ {
		if cc.Check() {
			t.Fatalf("tripped before the stop was set (call %d)", i)
		}
	}
	stop.Store(true)
	for i := 0; !cc.Check(); i++ {
		if i > cancelStride {
			t.Fatal("checkpoint did not trip within one stride of the stop")
		}
	}
	if cc.Err() != ErrStopped {
		t.Fatalf("Err() = %v, want ErrStopped", cc.Err())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var idle atomic.Bool
	if cc := NewStopCheck(ctx, &idle); !cc.Check() || !errors.Is(cc.Err(), context.Canceled) {
		t.Fatalf("canceled context with an unset stop: Err() = %v, want context.Canceled", cc.Err())
	}
}

// TestForEachCandidateCancel: a pre-canceled context aborts the
// traversal with the context error, while an un-canceled checkpoint
// leaves results identical to the plain path.
func TestForEachCandidateCancel(t *testing.T) {
	d := mustDist(t)
	data := d.SampleN(hashing.NewSplitMix64(11), 512)
	eng, err := NewEngine(len(data), testParamsFor(d, len(data)))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ix, err := BuildIndex(eng, data)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	q := data[3]

	var want []int32
	wantStats := ix.ForEachCandidate(q, func(id int32) bool {
		want = append(want, id)
		return true
	})
	if len(want) == 0 {
		t.Fatal("query produced no candidates; test is vacuous")
	}

	ctx, cancel := context.WithCancel(context.Background())
	var got []int32
	gotStats, err := ix.ForEachCandidateCancel(q, NewCancelCheck(ctx), func(id int32) bool {
		got = append(got, id)
		return true
	})
	if err != nil {
		t.Fatalf("un-canceled traversal errored: %v", err)
	}
	if gotStats != wantStats {
		t.Fatalf("stats differ: %+v vs %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("candidate counts differ: %d vs %d", len(got), len(want))
	}

	cancel()
	n := 0
	_, err = ix.ForEachCandidateCancel(q, NewCancelCheck(ctx), func(id int32) bool {
		n++
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled traversal: err = %v, want context.Canceled", err)
	}
	if n >= len(want) && wantStats.Filters > refBlock {
		t.Fatalf("canceled traversal streamed all %d candidates", n)
	}
}

func mustDist(t *testing.T) *dist.Product {
	t.Helper()
	return dist.MustProduct(dist.Fig1Profile(200, 0.2))
}

func testParamsFor(d *dist.Product, n int) Params {
	return Params{
		Seed:  7,
		Probs: d.Probs(),
		Threshold: func(x bitvec.Vector, j int, i uint32) float64 {
			denom := 0.7*float64(x.Len()) - float64(j)
			if denom <= 1 {
				return 1
			}
			return 1 / denom
		},
		Stop: ProductStopRule(n),
	}
}
