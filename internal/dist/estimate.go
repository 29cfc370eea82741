package dist

import (
	"errors"
	"fmt"

	"skewsim/internal/bitvec"
)

// EstimateFrequencies counts the empirical item frequencies of the data:
// out[i] is the fraction of vectors containing item i. dim = 0 infers the
// dimension as max bit + 1 over the data; bits at or above dim are
// ignored. Returns nil for empty data with dim 0.
func EstimateFrequencies(data []bitvec.Vector, dim int) []float64 {
	if dim == 0 {
		for _, x := range data {
			if mb, ok := x.MaxBit(); ok && int(mb)+1 > dim {
				dim = int(mb) + 1
			}
		}
	}
	if dim == 0 {
		return nil
	}
	out := make([]float64, dim)
	if len(data) == 0 {
		return out
	}
	for _, x := range data {
		for _, b := range x.Bits() {
			if int(b) < dim {
				out[b]++
			}
		}
	}
	inv := 1 / float64(len(data))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// EstimateProduct fits a product distribution to the data by frequency
// counting — the §9 strategy ("one can estimate each p_i to very high
// precision by counting the occurrences in the dataset itself"). dim = 0
// infers the dimension from the data.
func EstimateProduct(data []bitvec.Vector, dim int) (*Product, error) {
	if len(data) == 0 {
		return nil, errors.New("dist: cannot estimate from empty data")
	}
	freqs := EstimateFrequencies(data, dim)
	if len(freqs) == 0 {
		return nil, fmt.Errorf("dist: data has no bits and dim = %d", dim)
	}
	return NewProduct(freqs)
}
