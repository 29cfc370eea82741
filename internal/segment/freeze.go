package segment

import (
	"cmp"
	"slices"

	"skewsim/internal/bitvec"
	"skewsim/internal/faultinject"
	"skewsim/internal/lsf"
)

// buildSegment freezes a rotated (immutable) memtable into a frozenSeg:
// each repetition's live builder counting-sorts its postings (already
// local ids) into CSR form over the memtable's vectors, keeping its key
// table and path arenas — no bucket is replayed and no path re-hashed,
// and bucket order is first sight, so equal insert sequences freeze to
// equal segments. The memtable stays readable throughout: queries keep
// probing it in the flushing list until the segment is installed.
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
	seg := &frozenSeg{
		slots: slices.Clone(mt.slots),
		reps:  make([]*lsf.Index, len(mt.reps)),
	}
	for r, bl := range mt.reps {
		seg.reps[r] = bl.Freeze(data)
	}
	seg.bloom = buildSegBloom(seg.reps)
	seg.arenaBytes = segArenaBytes(seg.reps)
	return seg
}

// mergeSegments compacts two frozen segments into one, replaying both
// CSR indexes' buckets under their stored keys (lsf.ForEachBucket —
// again no filter is recomputed and no path re-hashed) while dropping
// every posting of a tombstoned vector; the merged data slice holds
// live vectors only, which is where Delete's space is finally
// reclaimed. The alive snapshot is taken once up front: a Delete racing
// the merge lands in the global tombstone array and stays masked at
// query time, so it is reclaimed by a later merge instead of this one.
// Returns nil when nothing is live.
func (s *SegmentedIndex) mergeSegments(a, b *frozenSeg) *frozenSeg {
	srcs := []*frozenSeg{a, b}
	// remap[i][lid] is source i's local id lid in the merged segment,
	// or -1 for a tombstoned vector.
	remap := make([][]int32, len(srcs))
	var slots []int32
	s.mu.RLock()
	for i, g := range srcs {
		remap[i] = make([]int32, len(g.slots))
		for lid, slot := range g.slots {
			remap[i][lid] = -1
			if s.alive[slot] {
				remap[i][lid] = int32(len(slots))
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
	merged := &frozenSeg{slots: slots, reps: make([]*lsf.Index, len(a.reps))}
	var lids []int32
	for r := range merged.reps {
		bl := lsf.NewBuilder(s.eng.reps[r])
		for i, g := range srcs {
			g.reps[r].ForEachBucket(func(h uint64, path []uint32, ids []int32) {
				lids = lids[:0]
				for _, lid := range ids {
					if nl := remap[i][lid]; nl >= 0 {
						lids = append(lids, nl)
					}
				}
				if len(lids) > 0 {
					bl.AddBucket(h, path, lids)
				}
			})
			bl.AddTruncated(g.reps[r].Stats().Truncated)
		}
		merged.reps[r] = bl.Freeze(data)
	}
	merged.bloom = buildSegBloom(merged.reps)
	merged.arenaBytes = segArenaBytes(merged.reps)
	return merged
}

// SortMatches orders matches by decreasing similarity, ties by ascending
// id — the deterministic order shared by top-k at every layer (segment,
// shard router).
func SortMatches(matches []Match) {
	slices.SortFunc(matches, func(a, b Match) int {
		if a.Similarity != b.Similarity {
			return cmp.Compare(b.Similarity, a.Similarity)
		}
		return cmp.Compare(a.ID, b.ID)
	})
}
