package lsf

import (
	"context"
	"errors"
	"slices"
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

// TestFiltersIntoCancel: an un-canceled checkpoint generates exactly
// the plain filter set, while a canceled one abandons generation with
// the context error and never marks the set Truncated (truncation sends
// a query to the exact scan; cancellation must not).
func TestFiltersIntoCancel(t *testing.T) {
	d := dist.MustProduct(dist.Fig1Profile(200, 0.2))
	data := d.SampleN(hashing.NewSplitMix64(11), 512)
	eng, err := NewEngine(len(data), Params{
		Seed:  7,
		Probs: d.Probs(),
		Threshold: func(x bitvec.Vector, j int, i uint32) float64 {
			denom := 0.7*float64(x.Len()) - float64(j)
			if denom <= 1 {
				return 1
			}
			return 1 / denom
		},
		Stop: ProductStopRule(len(data)),
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	q := data[3]
	var want, got FilterSet
	eng.FiltersInto(q, &want)
	if want.Len() == 0 {
		t.Fatal("query generated no filters; test is vacuous")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cc := NewCancelCheck(ctx)
	eng.FiltersIntoCancel(q, &got, cc)
	if cc.Err() != nil || got.Len() != want.Len() || got.Truncated != want.Truncated {
		t.Fatalf("un-canceled generation: %d filters (truncated %v, err %v), want %d (truncated %v)",
			got.Len(), got.Truncated, cc.Err(), want.Len(), want.Truncated)
	}
	for i := 0; i < want.Len(); i++ {
		if !slices.Equal(got.Path(i), want.Path(i)) {
			t.Fatalf("filter %d: path %v, want %v", i, got.Path(i), want.Path(i))
		}
	}

	cancel()
	cc = NewCancelCheck(ctx)
	got.Reset()
	eng.FiltersIntoCancel(q, &got, cc)
	if !errors.Is(cc.Err(), context.Canceled) {
		t.Fatalf("canceled generation: Err() = %v, want context.Canceled", cc.Err())
	}
	if got.Truncated {
		t.Fatal("canceled generation marked the filter set Truncated")
	}
}
