package lsf

import (
	"context"
	"errors"
	"sync/atomic"
)

// cancelStride is how many Check calls pass between polls of the
// context's done channel: the poll is a non-blocking select (tens of
// nanoseconds), so amortizing it over a stride keeps cancellation
// checkpoints cheap enough for per-filter and per-block placement in
// the traversal loops.
const cancelStride = 32

// CancelCheck is a cooperative cancellation checkpoint for the
// traversal hot loops: Check costs a countdown decrement on most calls
// and one non-blocking channel poll every cancelStride calls. A nil
// *CancelCheck is valid and never cancels, so non-deadline query paths
// thread nil and pay only a nil compare — NewCancelCheck returns nil
// for contexts that can never be canceled (context.Background and
// friends), collapsing the no-deadline serving path to that free case.
//
// A CancelCheck carries mutable countdown state: one per goroutine, not
// shared. Once tripped it stays tripped (Err is then non-nil).
type CancelCheck struct {
	ctx  context.Context
	done <-chan struct{} // nil for a stop-only checkpoint: never ready
	stop *atomic.Bool    // nil without a stop signal
	left int
	err  error
}

// ErrStopped is the Err of a checkpoint tripped by its stop signal
// rather than its context: the traversal was cut short because its
// result is no longer needed, not because it ran out of time.
var ErrStopped = errors.New("lsf: traversal stopped")

// NewCancelCheck returns a checkpoint for ctx, or nil when ctx cannot
// be canceled (nil ctx, or Done() == nil).
func NewCancelCheck(ctx context.Context) *CancelCheck {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	// left = 1 makes the very first Check poll: an already-expired
	// context trips at the first checkpoint even when the whole query
	// performs fewer than cancelStride checks.
	return &CancelCheck{ctx: ctx, done: done, left: 1}
}

// NewStopCheck is NewCancelCheck with a second way to trip: the
// checkpoint also reports canceled, with ErrStopped, within one stride
// of stop being set. Unlike a context, the flag is observed on the
// no-deadline path too, so the checkpoint is non-nil even for
// context.Background.
func NewStopCheck(ctx context.Context, stop *atomic.Bool) *CancelCheck {
	cc := &CancelCheck{ctx: ctx, stop: stop, left: 1}
	if ctx != nil {
		cc.done = ctx.Done()
	}
	return cc
}

// Check is the checkpoint: it reports whether the context is canceled
// (or the stop signal set), polling both every cancelStride calls. Safe
// on a nil receiver (never canceled).
func (cc *CancelCheck) Check() bool {
	if cc == nil {
		return false
	}
	if cc.err != nil {
		return true
	}
	cc.left--
	if cc.left > 0 {
		return false
	}
	cc.left = cancelStride
	if cc.stop != nil && cc.stop.Load() {
		cc.err = ErrStopped
		return true
	}
	select {
	case <-cc.done:
		cc.err = cc.ctx.Err()
		return true
	default:
		return false
	}
}

// Err returns the context error (or ErrStopped) once a Check has
// observed cancellation, nil before that (and on a nil receiver).
// Callers use it after a traversal to distinguish "sink stopped early"
// from "canceled".
func (cc *CancelCheck) Err() error {
	if cc == nil {
		return nil
	}
	return cc.err
}
