package segment

import (
	"cmp"
	"slices"

	"skewsim/internal/bitvec"
	"skewsim/internal/faultinject"
	"skewsim/internal/lsf"
)

// buildSegment freezes a rotated (immutable) memtable into a frozenSeg:
// per repetition, the memtable's buckets replay into the lsf Builder
// with local ids, so no filter is recomputed and the result is the same
// CSR layout BuildIndex would produce over the memtable's vectors.
// Tombstoned vectors are kept (their postings reference local ids);
// compaction reclaims them. Returns nil for an empty memtable.
func (s *SegmentedIndex) buildSegment(mt *memtable) *frozenSeg {
	if len(mt.slots) == 0 {
		return nil
	}
	// Test-only stall: lets the fault harness hold a freeze in flight
	// while concurrent queries and writes proceed against the flushing
	// list. The returned error is deliberately ignored — a slow freeze
	// is a delay, not a failure.
	_ = faultinject.Fire(faultinject.SegmentSlowFreeze, len(mt.slots))
	data := make([]bitvec.Vector, len(mt.slots))
	s.mu.RLock()
	for i, slot := range mt.slots {
		data[i] = s.vecs[slot]
	}
	s.mu.RUnlock()
	local := make(map[int32]int32, len(mt.slots))
	for i, slot := range mt.slots {
		local[slot] = int32(i)
	}
	seg := &frozenSeg{
		slots: slices.Clone(mt.slots),
		reps:  make([]*lsf.Index, len(mt.reps)),
	}
	var lids []int32
	for r := range mt.reps {
		bl := lsf.NewBuilder(s.eng.reps[r], data)
		for _, chain := range mt.reps[r].buckets {
			for _, b := range chain {
				lids = lids[:0]
				for _, slot := range b.slots {
					lids = append(lids, local[slot])
				}
				bl.AddBucket(b.path, lids)
			}
		}
		bl.AddTruncated(mt.reps[r].truncated)
		seg.reps[r] = bl.Freeze()
	}
	seg.bloom = buildSegBloom(seg.reps)
	seg.arenaBytes = segArenaBytes(seg.reps)
	return seg
}

// mergeSegments compacts two frozen segments into one, replaying both
// CSR indexes' buckets (lsf.ForEachBucket — again no filter is
// recomputed) while dropping every posting of a tombstoned vector; the
// merged data slice holds live vectors only, which is where Delete's
// space is finally reclaimed. The alive snapshot is taken once up
// front: a Delete racing the merge lands in the global tombstone array
// and stays masked at query time, so it is reclaimed by a later merge
// instead of this one. Returns nil when nothing is live.
func (s *SegmentedIndex) mergeSegments(a, b *frozenSeg) *frozenSeg {
	srcs := []*frozenSeg{a, b}
	var slots []int32
	s.mu.RLock()
	for _, g := range srcs {
		for _, slot := range g.slots {
			if s.alive[slot] {
				slots = append(slots, slot)
			}
		}
	}
	data := make([]bitvec.Vector, len(slots))
	for i, slot := range slots {
		data[i] = s.vecs[slot]
	}
	s.mu.RUnlock()
	if len(slots) == 0 {
		return nil
	}
	local := make(map[int32]int32, len(slots))
	for i, slot := range slots {
		local[slot] = int32(i)
	}
	merged := &frozenSeg{slots: slots, reps: make([]*lsf.Index, len(a.reps))}
	var lids []int32
	for r := range merged.reps {
		bl := lsf.NewBuilder(s.eng.reps[r], data)
		for _, g := range srcs {
			g.reps[r].ForEachBucket(func(path []uint32, ids []int32) {
				lids = lids[:0]
				for _, lid := range ids {
					if nl, ok := local[g.slots[lid]]; ok {
						lids = append(lids, nl)
					}
				}
				if len(lids) > 0 {
					bl.AddBucket(path, lids)
				}
			})
			bl.AddTruncated(g.reps[r].Stats().Truncated)
		}
		merged.reps[r] = bl.Freeze()
	}
	merged.bloom = buildSegBloom(merged.reps)
	merged.arenaBytes = segArenaBytes(merged.reps)
	return merged
}

// SortMatches orders matches by decreasing similarity, ties by ascending
// id — the deterministic order shared by TopK at every layer (segment,
// shard router).
func SortMatches(matches []Match) {
	slices.SortFunc(matches, func(a, b Match) int {
		if a.Similarity != b.Similarity {
			return cmp.Compare(b.Similarity, a.Similarity)
		}
		return cmp.Compare(a.ID, b.ID)
	})
}
