package bitvec

import (
	"encoding/binary"
	"math/bits"
	"testing"

	"skewsim/internal/hashing"
)

// refAndCount is the trivially-correct reference both kernels are
// tested against: a plain scalar loop, deliberately not shared with
// either implementation.
func refAndCount(a, b []uint64) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}

// TestKernelDifferential sweeps every span length through the tail and
// main-loop boundaries of the assembly kernel (0..3·loop words) at all
// four start alignments within a 256-bit block, asserting dispatch,
// the portable kernel, and (when present) the assembly agree with the
// scalar reference.
func TestKernelDifferential(t *testing.T) {
	t.Logf("active kernel: %s", KernelName())
	rng := hashing.NewSplitMix64(42)
	backing := make([]uint64, 2*(3*8+4+1))
	for i := range backing {
		backing[i] = rng.Next()
	}
	half := len(backing) / 2
	for align := 0; align < 4; align++ {
		a := backing[align:half]
		b := backing[half+align:]
		for n := 0; n <= len(a) && n <= len(b); n++ {
			want := refAndCount(a[:n], b[:n])
			if got := popcntAndGeneric(a[:n], b[:n]); got != want {
				t.Fatalf("align %d n %d: generic = %d, want %d", align, n, got, want)
			}
			if got := andCountWords(a[:n], b[:n]); got != want {
				t.Fatalf("align %d n %d: dispatch = %d, want %d", align, n, got, want)
			}
			if kernelAVX2 && n > 0 {
				if got := popcntAndAVX2(&a[0], &b[0], n); got != want {
					t.Fatalf("align %d n %d: avx2 = %d, want %d", align, n, got, want)
				}
			}
		}
	}
}

// TestKernelGatherDifferential does the same for the sparse gather
// kernel across lengths covering its unroll boundary.
func TestKernelGatherDifferential(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	q := make([]uint64, 64)
	for i := range q {
		q[i] = rng.Next()
	}
	for n := 0; n <= 19; n++ {
		w := make([]uint64, n)
		idxs := make([]uint32, n)
		for k := range w {
			w[k] = rng.Next()
			idxs[k] = uint32(rng.Next()) % uint32(len(q))
		}
		want := 0
		for k := range w {
			want += bits.OnesCount64(w[k] & q[idxs[k]])
		}
		if got := andCountGather(w, idxs, q); got != want {
			t.Fatalf("n %d: gather = %d, want %d", n, got, want)
		}
	}
}

// kernelWords decodes fuzz bytes into a word array (8 bytes per word,
// the remainder zero-padded into a final word).
func kernelWords(data []byte) []uint64 {
	words := make([]uint64, 0, len(data)/8+1)
	for len(data) >= 8 {
		words = append(words, binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	if len(data) > 0 {
		var last [8]byte
		copy(last[:], data)
		words = append(words, binary.LittleEndian.Uint64(last[:]))
	}
	return words
}

// FuzzIntersectKernel throws arbitrary word arrays at the kernel layer
// and the PackedSet paths built on it, asserting the assembly and
// portable kernels return identical counts across word alignments,
// dense/sparse span mixes (zero words in the data side shift Append's
// adaptive choice), and early-exit thresholds. Under -tags purego only
// the portable path runs, proving the same corpus green there.
func FuzzIntersectKernel(f *testing.F) {
	f.Add([]byte{}, 0)                                          // empty everything
	f.Add([]byte{1, 255, 255, 255, 255, 255, 255, 255, 255}, 1) // one full word
	f.Add(func() []byte {                                       // 20 dense words, alignment 3
		b := make([]byte, 1+20*8)
		b[0] = 3
		for i := range b[1:] {
			b[1+i] = byte(0xAA >> (i % 3))
		}
		return b
	}(), 64)
	f.Add(func() []byte { // sparse layout: occupied word every 8th, exit bound reachable
		b := make([]byte, 1+48*8)
		for w := 0; w < 48; w += 8 {
			b[1+w*8] = 0x0F
		}
		return b
	}(), 3)
	f.Fuzz(func(t *testing.T, data []byte, need int) {
		if len(data) == 0 {
			return
		}
		align := int(data[0] & 3)
		words := kernelWords(data[1:])
		half := len(words) / 2
		if align > half {
			align = half
		}
		a, b := words[align:half], words[half:]
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]

		want := refAndCount(a, b)
		if got := popcntAndGeneric(a, b); got != want {
			t.Fatalf("generic = %d, want %d", got, want)
		}
		if got := andCountWords(a, b); got != want {
			t.Fatalf("dispatch = %d, want %d", got, want)
		}
		if kernelAVX2 && n > 0 {
			if got := popcntAndAVX2(&a[0], &b[0], n); got != want {
				t.Fatalf("avx2 = %d, want %d", got, want)
			}
		}

		// PackedSet layer: vector from a's bits (its zero words steer
		// Append between dense and sparse forms), b as the query bitmap.
		var vbits []uint32
		for i, w := range a {
			for w != 0 {
				vbits = append(vbits, uint32(i*64+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		ps := NewPackedSet([]Vector{New(vbits...)})
		if got := ps.IntersectWords(0, b); got != want {
			t.Fatalf("IntersectWords (dense=%v) = %d, want %d", ps.IsDense(0), got, want)
		}
		inter, ok := ps.IntersectWordsAtLeast(0, b, need)
		if ok != (want >= need) || (ok && inter != want) {
			t.Fatalf("IntersectWordsAtLeast(need=%d, dense=%v) = (%d, %v), intersection is %d",
				need, ps.IsDense(0), inter, ok, want)
		}
	})
}

// benchIntersectSet builds a one-vector PackedSet plus a query bitmap
// overlapping roughly half its bits. stride controls the packed form:
// adjacent bits pack dense, widely-spread bits pack sparse.
func benchIntersectSet(tb testing.TB, nbits int, stride uint32, wantDense bool) (*PackedSet, []uint64) {
	vbits := make([]uint32, nbits)
	qbits := make([]uint32, 0, nbits)
	for i := range vbits {
		vbits[i] = uint32(i) * stride
		if i%2 == 0 {
			qbits = append(qbits, uint32(i)*stride)
		}
	}
	ps := NewPackedSet([]Vector{New(vbits...)})
	if ps.IsDense(0) != wantDense {
		tb.Fatalf("stride %d packed dense=%v, want %v", stride, ps.IsDense(0), wantDense)
	}
	return ps, QueryWords(nil, New(qbits...))
}

var benchSinkInt int

// BenchmarkIntersectWords is the kernel-layer microbenchmark: one
// packed vector intersected with one query bitmap, in both packed
// forms, with and without an early-exit threshold that never fires
// (the caller's typical passing-candidate case).
func BenchmarkIntersectWords(b *testing.B) {
	for _, sh := range []struct {
		name      string
		nbits     int
		stride    uint32
		wantDense bool
	}{
		{"dense", 8192, 3, true},     // ~384-word contiguous span
		{"sparse", 2048, 777, false}, // one occupied word every ~12
	} {
		ps, qw := benchIntersectSet(b, sh.nbits, sh.stride, sh.wantDense)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSinkInt = ps.IntersectWords(0, qw)
			}
		})
		b.Run(sh.name+"/at-least", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSinkInt, _ = ps.IntersectWordsAtLeast(0, qw, sh.nbits/4)
			}
		})
	}
}
