package segment

import (
	"skewsim/internal/lsf"
)

// hashPath is the bucket key of every layer: memtable builders, frozen
// key tables, bloom filters and query plans all key on it, and frozen
// segments keep the key they were built with (compaction replays stored
// keys). It is a variable only so tests can force key collisions.
var hashPath = lsf.HashPath

// memtable is the mutable head of a SegmentedIndex: one live lsf
// Builder per repetition engine — the open-addressed, pointer-free
// layout of a frozen segment, growing in append mode and answering
// lookups through per-bucket posting links — plus the slots it covers,
// in insertion order. Postings carry local ids (positions in slots), so
// freezing is the builder's counting sort over the same arenas: no
// replay, no re-hash, no id remap. A memtable is mutated only while it
// is the active head (under the index write lock); once rotated into
// the flushing list it is immutable and safe to read without
// coordination, including while its segment is being frozen.
type memtable struct {
	reps []*lsf.Builder
	// slots are the index-wide slot numbers of the vectors in this
	// memtable, in insertion order; a posting's local id indexes it.
	slots []int32
	// rotLSN is the WAL high-water mark captured when the memtable
	// rotated into the freeze queue: every insert in this or an earlier
	// memtable was logged at or below it, so the checkpoint written
	// after this memtable freezes may fence that whole insert prefix.
	// Zero without an attached WAL.
	rotLSN uint64
}

// newMemtable starts an empty memtable over eng. prev, when non-nil, is
// the memtable it replaces: the new one reserves prev's sizes, since
// memtables fill to the same vector count.
func newMemtable(eng *Engines, prev *memtable) *memtable {
	mt := &memtable{reps: make([]*lsf.Builder, len(eng.reps))}
	for r, e := range eng.reps {
		mt.reps[r] = lsf.NewLiveBuilder(e)
		if prev != nil {
			mt.reps[r].Reserve(prev.reps[r])
		}
	}
	if prev != nil {
		mt.slots = make([]int32, 0, len(prev.slots))
	}
	return mt
}

// add appends slot's filters (one set per repetition) under the next
// local id.
func (mt *memtable) add(slot int32, fss []*lsf.FilterSet) {
	lid := int32(len(mt.slots))
	for r, fs := range fss {
		bl := mt.reps[r]
		if fs.Truncated {
			bl.AddTruncated(1)
		}
		for k := 0; k < fs.Len(); k++ {
			path := fs.Path(k)
			bl.Add(hashPath(path), path, lid)
		}
	}
	mt.slots = append(mt.slots, slot)
}

// each streams the slots of path's bucket (key h) in repetition r into
// fn, in insertion order, until fn returns false; it reports whether fn
// never did.
func (mt *memtable) each(r int, h uint64, path []uint32, fn func(slot int32) bool) bool {
	bl := mt.reps[r]
	for p := bl.Lookup(h, path); p >= 0; {
		var lid int32
		lid, p = bl.Posting(p)
		if !fn(mt.slots[lid]) {
			return false
		}
	}
	return true
}
