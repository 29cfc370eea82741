// Package join implements set similarity join by repeated similarity
// search, the reduction described in §1.1 ("Similarity joins"): to join R
// against an indexed S, run one search per vector of R and verify the
// candidates. With SkewSearch as the index this realizes the paper's
// O(d·|R|·|S|^ρ) join bound; with the prefix or brute-force indexes it is
// exact.
package join

import (
	"cmp"
	"errors"
	"slices"

	"skewsim/internal/bitvec"
)

// CandidateSource is the minimal interface the driver needs from an
// index: candidate generation plus access to the indexed data. All three
// index types in this library implement it.
type CandidateSource interface {
	Candidates(q bitvec.Vector) []int32
	Data() []bitvec.Vector
}

// sortPairs orders join output deterministically by (RIdx, SIdx).
func sortPairs(pairs []Pair) {
	slices.SortFunc(pairs, func(a, b Pair) int {
		if a.RIdx != b.RIdx {
			return cmp.Compare(a.RIdx, b.RIdx)
		}
		return cmp.Compare(a.SIdx, b.SIdx)
	})
}

// Pair is one joined pair: R[RIdx] matches S[SIdx] with the given
// similarity.
type Pair struct {
	RIdx       int
	SIdx       int
	Similarity float64
}

// Stats summarizes the join's work.
type Stats struct {
	Queries    int
	Candidates int // total distinct candidates verified
	Pairs      int
}

// Run joins every vector of R against the indexed S, returning all pairs
// with measure-similarity at least threshold among the candidates the
// index generates. Pairs are sorted by (RIdx, SIdx).
func Run(index CandidateSource, r []bitvec.Vector, threshold float64, m bitvec.Measure) ([]Pair, Stats, error) {
	if index == nil {
		return nil, Stats{}, errors.New("join: nil index")
	}
	if threshold < 0 || threshold > 1 {
		return nil, Stats{}, errors.New("join: threshold outside [0, 1]")
	}
	data := index.Data()
	var pairs []Pair
	var st Stats
	for ri, q := range r {
		st.Queries++
		for _, id := range index.Candidates(q) {
			st.Candidates++
			if s := m.Similarity(q, data[id]); s >= threshold {
				pairs = append(pairs, Pair{RIdx: ri, SIdx: int(id), Similarity: s})
			}
		}
	}
	sortPairs(pairs)
	st.Pairs = len(pairs)
	return pairs, st, nil
}

// SelfJoin joins the indexed dataset against itself, skipping the trivial
// identity pairs and reporting each unordered pair once (RIdx < SIdx).
func SelfJoin(index CandidateSource, threshold float64, m bitvec.Measure) ([]Pair, Stats, error) {
	if index == nil {
		return nil, Stats{}, errors.New("join: nil index")
	}
	data := index.Data()
	var pairs []Pair
	var st Stats
	for ri, q := range data {
		st.Queries++
		for _, id := range index.Candidates(q) {
			if int(id) <= ri {
				continue
			}
			st.Candidates++
			if s := m.Similarity(q, data[id]); s >= threshold {
				pairs = append(pairs, Pair{RIdx: ri, SIdx: int(id), Similarity: s})
			}
		}
	}
	sortPairs(pairs)
	st.Pairs = len(pairs)
	return pairs, st, nil
}
