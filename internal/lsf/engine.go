// Package lsf implements the locality-sensitive filtering framework of
// §3 of the paper: a randomized mapping F(x) of vectors to sets of
// "chosen paths", with a pluggable threshold function s(x, j, i) and the
// paper's distribution-dependent stopping rule, plus an inverted filter
// index: the frozen key table that internal/segment probes, with a
// one-repetition query loop of its own (Query, QueryBest, CandidateIDs).
//
// The engine is shared by the paper's SkewSearch schemes and the Chosen
// Path baseline, all three built by internal/core: they differ only in
// the threshold function and stopping rule they plug in, which is
// exactly the paper's framing of its contribution.
package lsf

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"skewsim/internal/bitvec"
	"skewsim/internal/hashing"
)

// ThresholdFunc is the paper's s(x, j, i): the probability that a path of
// length j chosen by vector x is extended with element i. Implementations
// may use |x|, j, and the identity of i (typically through its item-level
// probability). Values are clamped to [0, 1] by the engine.
type ThresholdFunc func(x bitvec.Vector, j int, i uint32) float64

// StopRule decides whether a path is complete (becomes a filter) given
// the accumulated Σ log(1/p) of its elements and its length. The paper's
// rule is logInvP >= log n (i.e. Π p ≤ 1/n); Chosen Path uses a fixed
// length.
type StopRule func(logInvP float64, length int) bool

// ProductStopRule returns the paper's stopping rule for dataset size n:
// stop as soon as Π_{i∈v} p_i ≤ 1/n.
func ProductStopRule(n int) StopRule {
	logN := math.Log(float64(n))
	return func(logInvP float64, _ int) bool { return logInvP >= logN }
}

// FixedDepthStopRule returns Chosen Path's rule: stop exactly at length k.
func FixedDepthStopRule(k int) StopRule {
	return func(_ float64, length int) bool { return length >= k }
}

// Params configures an Engine.
type Params struct {
	// Seed drives all hash function choices; equal seeds give identical
	// filter mappings (required: queries must reuse the preprocessing
	// hash functions).
	Seed uint64
	// Probs are the item-level probabilities p_i, indexed by element.
	// Elements outside the slice are treated as probability 0 (infinitely
	// rare: any path reaching them completes immediately).
	Probs []float64
	// Threshold is s(x, j, i).
	Threshold ThresholdFunc
	// Stop decides filter completion.
	Stop StopRule
	// MaxDepth caps path length. Paths that reach it without completing
	// are discarded. Defaults to log2(n)+3 via NewEngine's n argument
	// when zero.
	MaxDepth int
	// MaxFiltersPerVector is a work budget: filter generation for one
	// vector aborts (marking the result truncated) once this many paths
	// are alive or complete. Guards against adversarial corner cases the
	// expected-case analysis does not cover. Defaults to 1 << 18.
	MaxFiltersPerVector int
}

// Engine computes filter sets F(x).
type Engine struct {
	hasher     *hashing.PathHasher
	threshold  ThresholdFunc
	stop       StopRule
	maxDepth   int
	maxFilters int
	// logInv caches -log(p_i) per element: a path's information content
	// Σ log(1/p_i), which the stopping rule reads, assumes independent
	// coordinates. Filter generation evaluates this once per candidate
	// extension, so the table turns a math.Log per call into a load.
	logInv []float64
	// scratch recycles the frontier stacks of FiltersInto so steady-state
	// filter generation performs no allocations beyond arena growth.
	scratch sync.Pool
}

// DefaultMaxDepth is the depth cap for dataset size n: with all p_i ≤ 1/2
// every path completes within log2(n)+1 steps, so the default never
// truncates model-conforming data.
func DefaultMaxDepth(n int) int {
	if n < 2 {
		return 3
	}
	return int(math.Ceil(math.Log2(float64(n)))) + 3
}

const defaultMaxFilters = 1 << 18

// NewEngine validates parameters and builds an engine sized for datasets
// of about n vectors (n controls the default depth cap only; the stopping
// rule is supplied by the caller).
func NewEngine(n int, p Params) (*Engine, error) {
	if p.Threshold == nil {
		return nil, errors.New("lsf: Threshold is required")
	}
	if p.Stop == nil {
		return nil, errors.New("lsf: Stop rule is required")
	}
	for i, v := range p.Probs {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return nil, fmt.Errorf("lsf: Probs[%d] = %v outside [0, 1]", i, v)
		}
	}
	maxDepth := p.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth(n)
	}
	if maxDepth < 1 {
		return nil, fmt.Errorf("lsf: MaxDepth %d must be >= 1", maxDepth)
	}
	maxFilters := p.MaxFiltersPerVector
	if maxFilters == 0 {
		maxFilters = defaultMaxFilters
	}
	if maxFilters < 1 {
		return nil, fmt.Errorf("lsf: MaxFiltersPerVector %d must be >= 1", maxFilters)
	}
	logInv := make([]float64, len(p.Probs))
	for i, pv := range p.Probs {
		if pv <= 0 {
			logInv[i] = math.Inf(1)
		} else {
			logInv[i] = -math.Log(pv)
		}
	}
	return &Engine{
		hasher:     hashing.NewPathHasher(p.Seed, maxDepth),
		threshold:  p.Threshold,
		stop:       p.Stop,
		logInv:     logInv,
		maxDepth:   maxDepth,
		maxFilters: maxFilters,
	}, nil
}

// Span addresses one path inside a FilterSet's element arena.
type Span struct {
	// Off is the index of the path's first element in Elems.
	Off uint32
	// Len is the path length.
	Len uint32
}

// FilterSet is the result of computing F(x). All path elements live in a
// single arena (Elems) addressed by (offset, length) spans, so one filter
// set costs O(1) slice headers regardless of how many filters it holds,
// and a Reset/FiltersInto cycle reuses the arena capacity.
type FilterSet struct {
	// Elems is the arena holding every completed path back to back.
	Elems []uint32
	// Spans addresses the completed filters inside Elems, in generation
	// order. Each path is a sequence of distinct elements of x in the
	// order they were chosen.
	Spans []Span
	// Paths is a compatibility view of the arena: Paths[k] aliases the
	// k-th span of Elems. It is populated by Filters but left nil by the
	// allocation-light FiltersInto; new code should use Len/Path.
	Paths [][]uint32
	// Truncated reports that the work budget was exhausted; the filter
	// set is incomplete and callers should treat the vector specially
	// (SkewSearch falls back to linear scanning for such queries).
	Truncated bool
	// Expanded counts recursion steps, the O(|x|)-cost unit of Lemma 6.
	Expanded int
}

// Len returns the number of completed filters.
func (fs *FilterSet) Len() int { return len(fs.Spans) }

// Path returns the k-th filter as a view into the arena. The slice is
// valid until the next Reset/FiltersInto and must not be modified.
func (fs *FilterSet) Path(k int) []uint32 {
	s := fs.Spans[k]
	return fs.Elems[s.Off : s.Off+s.Len]
}

// Reset empties the set, keeping the arena capacity for reuse.
func (fs *FilterSet) Reset() {
	fs.Elems = fs.Elems[:0]
	fs.Spans = fs.Spans[:0]
	fs.Paths = nil
	fs.Truncated = false
	fs.Expanded = 0
}

// filterScratch holds the per-depth frontier stacks of one FiltersInto
// call: the frontier at depth j is count(curLog) paths of exactly j
// elements each, stored back to back in cur with stride j. The two
// levels ping-pong, so a whole filter generation touches exactly two
// growable arenas plus the two logInvP stacks.
type filterScratch struct {
	cur, next       []uint32
	curLog, nextLog []float64
	// cutDepth and termDepth hold the integer form of the per-depth
	// threshold test. The threshold function sees only (x, j, i) — never
	// the path — so s(x, depth, i) is shared by every frontier node of a
	// depth; it is evaluated once per element and stored as its exact
	// hash cutoff (hashing.UnitCut), next to the element's expanded-hash
	// term (hashing.ExtTerm). The node loop then decides each candidate
	// extension with one modular addition and one integer compare,
	// bit-identical to evaluating ext.Unit(i) >= s in floats.
	cutDepth  []uint64
	termDepth []uint64
}

// Filters computes F(x) under the engine's threshold and stopping rule.
// The empty vector has no filters. Deterministic given the engine seed.
// The returned set has the Paths compatibility view populated; hot paths
// should prefer FiltersInto with a reused FilterSet.
func (e *Engine) Filters(x bitvec.Vector) FilterSet {
	var fs FilterSet
	e.FiltersInto(x, &fs)
	if n := fs.Len(); n > 0 {
		fs.Paths = make([][]uint32, n)
		for k := range fs.Paths {
			fs.Paths[k] = fs.Path(k)
		}
	}
	return fs
}

// FiltersInto computes F(x), appending the completed paths to fs's arena
// and accumulating Expanded/Truncated. It produces exactly the same
// filters in the same order as Filters but performs no allocations in
// steady state: path elements land in fs.Elems, and the frontier stacks
// come from a per-engine pool. Callers that reuse one FilterSet must
// Reset it between vectors (or deliberately batch several vectors'
// filters into one arena). The Paths view is not populated.
func (e *Engine) FiltersInto(x bitvec.Vector, fs *FilterSet) {
	e.FiltersIntoCancel(x, fs, nil)
}

// FiltersIntoCancel is FiltersInto with a cooperative cancellation
// checkpoint, polled once per frontier-node expansion (the O(|x|) cost
// unit of Lemma 6). On cancellation the filter set is abandoned
// incomplete WITHOUT setting Truncated — truncation means "work budget
// hit, fall back to exact scanning", which a canceled query must never
// trigger; callers detect cancellation through cc.Err() and abort. A
// nil cc is the plain FiltersInto.
func (e *Engine) FiltersIntoCancel(x bitvec.Vector, fs *FilterSet, cc *CancelCheck) {
	if x.IsEmpty() {
		return
	}
	base := fs.Len()
	sc, _ := e.scratch.Get().(*filterScratch)
	if sc == nil {
		sc = new(filterScratch)
	}
	cur, next := sc.cur[:0], sc.next[:0]
	curLog, nextLog := sc.curLog[:0], sc.nextLog[:0]
	cutDepth, termDepth := sc.cutDepth[:0], sc.termDepth[:0]
	defer func() {
		sc.cur, sc.next, sc.curLog, sc.nextLog = cur, next, curLog, nextLog
		sc.cutDepth, sc.termDepth = cutDepth, termDepth
		e.scratch.Put(sc)
	}()
	bitsX := x.Bits()
	curLog = append(curLog, 0) // the root: empty path, Σ log(1/p) = 0
	for depth := 0; depth < e.maxDepth && len(curLog) > 0; depth++ {
		next, nextLog = next[:0], nextLog[:0]
		// s(x, depth, i) is path-independent: evaluate it once per
		// element for this depth instead of once per (node, element),
		// and translate it straight into integer form — the exact hash
		// cutoff (s <= 0 becomes cutoff 0, rejecting every extension,
		// exactly as the old explicit skip did) and the element's
		// expanded-hash term at the extended level.
		cutDepth, termDepth = cutDepth[:0], termDepth[:0]
		for _, i := range bitsX {
			cutDepth = append(cutDepth, hashing.UnitCut(e.threshold(x, depth, i)))
			termDepth = append(termDepth, e.hasher.ExtTerm(depth+1, i))
		}
		for pi, plog := range curLog {
			if cc != nil && cc.Check() {
				return
			}
			elems := cur[pi*depth : pi*depth+depth]
			fs.Expanded++
			// One fingerprint of the path serves every candidate
			// extension, and its expanded-hash bias is hoisted too: the
			// per-element test below is one modular add and one compare,
			// bit-identical to ext.Unit(i) >= s (see hashing.UnitCut).
			bias := e.hasher.Extend(elems).Bias()
			for bi, i := range bitsX {
				// Hash rejection first: it is one add+compare and throws
				// out most elements, so the O(depth) membership scan runs
				// only for survivors. Both checks are pure rejections, so
				// the order cannot change what is emitted.
				if hashing.ExtHash(bias, termDepth[bi]) >= cutDepth[bi] {
					continue
				}
				if containsElem(elems, i) {
					continue // sampling without replacement
				}
				logInvP := math.Inf(1) // outside Probs: p = 0
				if int(i) < len(e.logInv) {
					logInvP = plog + e.logInv[i]
				}
				if e.stop(logInvP, depth+1) {
					off := uint32(len(fs.Elems))
					fs.Elems = append(fs.Elems, elems...)
					fs.Elems = append(fs.Elems, i)
					fs.Spans = append(fs.Spans, Span{Off: off, Len: uint32(depth + 1)})
				} else {
					next = append(next, elems...)
					next = append(next, i)
					nextLog = append(nextLog, logInvP)
				}
				if fs.Len()-base+len(nextLog) > e.maxFilters {
					fs.Truncated = true
					return
				}
			}
		}
		cur, next = next, cur
		curLog, nextLog = nextLog, curLog
	}
}

// containsElem is a linear scan on purpose: paths are at most maxDepth
// (≈ log2 n) elements long, so O(depth) beats any set structure's
// constant factors and allocates nothing.
func containsElem(elems []uint32, v uint32) bool {
	for _, e := range elems {
		if e == v {
			return true
		}
	}
	return false
}
