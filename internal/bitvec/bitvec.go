// Package bitvec implements sparse binary vectors over a universe
// U = {0, ..., d-1} together with the set-similarity measures of the
// paper's problem statement (§2; Braun-Blanquet is the one its bounds
// are stated for) used across the skewsim library.
//
// A Vector stores the indices of its set bits as a strictly increasing
// slice of uint32, which is the natural encoding for the sparse, skewed
// data the paper targets: the cost of every operation is proportional to
// the number of 1s, not to the dimension d.
package bitvec

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Vector is a sparse binary vector: the sorted, duplicate-free indices of
// its set bits. The zero value is the empty vector.
type Vector struct {
	bits []uint32
}

// New builds a Vector from the given bit indices. The input may be in any
// order and may contain duplicates; it is not retained.
func New(indices ...uint32) Vector {
	if len(indices) == 0 {
		return Vector{}
	}
	bits := make([]uint32, len(indices))
	copy(bits, indices)
	slices.Sort(bits)
	// Deduplicate in place.
	w := 1
	for r := 1; r < len(bits); r++ {
		if bits[r] != bits[w-1] {
			bits[w] = bits[r]
			w++
		}
	}
	return Vector{bits: bits[:w]}
}

// FromSorted wraps an already strictly-increasing slice of indices without
// copying. It panics if the slice is not strictly increasing, since a
// malformed vector would silently corrupt every similarity computation
// downstream.
func FromSorted(bits []uint32) Vector {
	for i := 1; i < len(bits); i++ {
		if bits[i] <= bits[i-1] {
			panic(fmt.Sprintf("bitvec: FromSorted input not strictly increasing at %d: %d <= %d",
				i, bits[i], bits[i-1]))
		}
	}
	return Vector{bits: bits}
}

// FromDense builds a Vector from a dense boolean slice.
func FromDense(dense []bool) Vector {
	var bits []uint32
	for i, b := range dense {
		if b {
			bits = append(bits, uint32(i))
		}
	}
	return Vector{bits: bits}
}

// Dense expands the vector into a dense boolean slice of length d.
// Bits at or beyond d are ignored.
func (v Vector) Dense(d int) []bool {
	out := make([]bool, d)
	for _, b := range v.bits {
		if int(b) < d {
			out[b] = true
		}
	}
	return out
}

// Bits returns the underlying sorted indices. The slice must not be
// modified by the caller.
func (v Vector) Bits() []uint32 { return v.bits }

// Len returns the Hamming weight |v| (number of set bits).
func (v Vector) Len() int { return len(v.bits) }

// IsEmpty reports whether the vector has no set bits.
func (v Vector) IsEmpty() bool { return len(v.bits) == 0 }

// Contains reports whether bit i is set.
func (v Vector) Contains(i uint32) bool {
	_, found := slices.BinarySearch(v.bits, i)
	return found
}

// Get returns the k-th smallest set bit. It panics if k is out of range.
func (v Vector) Get(k int) uint32 { return v.bits[k] }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	if len(v.bits) == 0 {
		return Vector{}
	}
	bits := make([]uint32, len(v.bits))
	copy(bits, v.bits)
	return Vector{bits: bits}
}

// Equal reports whether v and w have exactly the same set bits.
func (v Vector) Equal(w Vector) bool {
	if len(v.bits) != len(w.bits) {
		return false
	}
	for i, b := range v.bits {
		if w.bits[i] != b {
			return false
		}
	}
	return true
}

// MaxBit returns the largest set bit and true, or (0, false) for the empty
// vector. Useful for inferring a sufficient dimension.
func (v Vector) MaxBit() (uint32, bool) {
	if len(v.bits) == 0 {
		return 0, false
	}
	return v.bits[len(v.bits)-1], true
}

// gallopRatio is the size skew at which IntersectionSize switches from
// the linear merge to the galloping merge. This package's
// BenchmarkIntersectionSizeSkewed puts the crossover between 4× (the two
// tie, ~385 ns for 64 vs 256 elements) and 8× (gallop wins, 450 vs
// 701 ns): below it the linear merge's branch-predictable loop wins,
// above it the O(|small|·log|large|) exponential search does.
const gallopRatio = 8

// IntersectionSize returns |v ∩ w|. Near-equal sizes — the common case
// under D, where both lists concentrate around C log n — use a linear
// merge; when one vector is ≥ gallopRatio× longer than the other (the
// skewed workloads this library targets: a rare-item query against a
// frequent-item data vector), each element of the short list gallops
// through the long one instead.
func (v Vector) IntersectionSize(w Vector) int {
	a, b := v.bits, w.bits
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b) >= len(a)*gallopRatio {
		return gallopIntersectionSize(a, b)
	}
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// gallopIntersectionSize counts |a ∩ b| for len(a) ≪ len(b): for each
// element of a it exponentially expands a window in b past the previous
// match position, then binary-searches inside it — O(|a|·log(|b|/|a|))
// instead of O(|a|+|b|).
func gallopIntersectionSize(a, b []uint32) int {
	n, j := 0, 0
	for _, x := range a {
		if j >= len(b) {
			break
		}
		if b[j] < x {
			// Gallop: find a window (lo, hi] with b[hi] >= x.
			step := 1
			for j+step < len(b) && b[j+step] < x {
				step <<= 1
			}
			lo, hi := j+(step>>1), j+step
			if hi > len(b) {
				hi = len(b)
			}
			// Binary search for the first element >= x in b[lo:hi].
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if b[mid] < x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			j = lo
			if j >= len(b) {
				break
			}
		}
		if b[j] == x {
			n++
			j++
		}
	}
	return n
}

// Intersection returns v ∩ w as a new Vector.
func (v Vector) Intersection(w Vector) Vector {
	a, b := v.bits, w.bits
	out := make([]uint32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return Vector{bits: out}
}

// Union returns v ∪ w as a new Vector.
func (v Vector) Union(w Vector) Vector {
	a, b := v.bits, w.bits
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return Vector{bits: out}
}

// Difference returns v \ w as a new Vector.
func (v Vector) Difference(w Vector) Vector {
	a, b := v.bits, w.bits
	out := make([]uint32, 0, len(a))
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return Vector{bits: out}
}

// UnionSize returns |v ∪ w| without materializing the union.
func (v Vector) UnionSize(w Vector) int {
	return len(v.bits) + len(w.bits) - v.IntersectionSize(w)
}

// String renders the vector as "{b1, b2, ...}".
func (v Vector) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, b := range v.bits {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.FormatUint(uint64(b), 10))
	}
	sb.WriteByte('}')
	return sb.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
