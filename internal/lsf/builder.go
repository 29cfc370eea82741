package lsf

import (
	"math"
	"slices"

	"skewsim/internal/bitvec"
)

// posting is one (bucket, id) occurrence recorded during construction;
// the freeze step counting-sorts these into the CSR arrays.
type posting struct {
	bucket int32
	id     int32
}

// Builder accumulates index construction in the frozen layout's own
// arenas: the open-addressing key table (linear probing, kept at load
// ≤ 1/2 by doubling, so it already is the final table) and a flat
// posting log. Everything is a handful of large pointer-free slices;
// Freeze counting-sorts the log into CSR form and hands the table over
// as it is — nothing is re-hashed. Buckets are numbered in first-sight
// order, so identical input sequences freeze to identical indexes.
//
// A bucket is its 64-bit key: HashPath of the path, or whatever key the
// caller probes the frozen index with (PathRefHash never re-hashes).
// Two paths under one key share a bucket, which can only add
// candidates — exact verification rejects them — and at 64 bits it
// practically never happens. No path is stored.
//
// BuildIndex computes F(x) per vector and is the entry point when only
// the data is known. The segment layer's memtable and compaction
// produce keys themselves and feed (key, id) straight in, so freezing a
// memtable or merging two frozen segments never recomputes a filter or
// re-hashes a path. Keys may repeat; postings for a repeated key
// concatenate in call order. Ids must index into the data passed to
// Freeze. Each posting counts toward TotalFilters, preserving the
// Σ_x |F(x)| identity.
//
// A live builder (NewLiveBuilder) additionally threads each bucket's
// postings in insertion order (head/tail per bucket, next per posting),
// so it can answer Lookup while it grows. Static builds skip the links.
type Builder struct {
	engine    *Engine
	tableKeys []uint64 // bucket key per slot (valid where tableIdx >= 0)
	tableIdx  []int32  // bucket number per slot; -1 = empty
	tableMask uint64   // len(tableIdx) is a power of two
	buckets   int
	postings  []posting

	live bool
	head []int32 // live only, per bucket: first posting, -1 = none
	tail []int32 // live only, per bucket: last posting, -1 = none
	next []int32 // live only, per posting: next posting of its bucket, -1 = end

	totalFilters   int
	truncatedCount int
}

// NewBuilder starts a static build: postings go in, an Index comes out
// of Freeze, and nothing can be looked up in between.
func NewBuilder(engine *Engine) *Builder { return newBuilder(engine, false) }

// NewLiveBuilder starts a build that also answers Lookup while it grows
// — the segment memtable, whose arenas become its frozen segment's.
// It pays one int32 link per posting and two per bucket for that.
func NewLiveBuilder(engine *Engine) *Builder { return newBuilder(engine, true) }

func newBuilder(engine *Engine, live bool) *Builder {
	b := &Builder{engine: engine, live: live}
	b.resizeTable(4)
	return b
}

// resizeTable moves the key table to size slots (a power of two, at
// least twice the bucket count), re-inserting every key in slot order.
func (b *Builder) resizeTable(size int) {
	keys := make([]uint64, size)
	idx := make([]int32, size)
	for i := range idx {
		idx[i] = -1
	}
	mask := uint64(size - 1)
	for slot, bi := range b.tableIdx {
		if bi < 0 {
			continue
		}
		h := b.tableKeys[slot]
		s := h & mask
		for idx[s] >= 0 {
			s = (s + 1) & mask
		}
		idx[s] = bi
		keys[s] = h
	}
	b.tableKeys, b.tableIdx, b.tableMask = keys, idx, mask
}

// find returns the bucket of key h, or -1 and the empty slot the bucket
// would take.
func (b *Builder) find(h uint64) (int32, uint64) {
	for slot := h & b.tableMask; ; slot = (slot + 1) & b.tableMask {
		bi := b.tableIdx[slot]
		if bi < 0 || b.tableKeys[slot] == h {
			return bi, slot
		}
	}
}

// bucketFor returns the bucket number of key h, creating it if new.
// The table doubles before it would pass load 1/2, so its size is
// always the smallest power of two (at least 4) holding twice the
// buckets.
func (b *Builder) bucketFor(h uint64) int32 {
	bi, slot := b.find(h)
	if bi >= 0 {
		return bi
	}
	bi = int32(b.buckets)
	b.buckets++
	if 2*b.buckets > len(b.tableIdx) {
		b.resizeTable(2 * len(b.tableIdx))
		_, slot = b.find(h)
	}
	b.tableIdx[slot] = bi
	b.tableKeys[slot] = h
	if b.live {
		b.head = append(b.head, -1)
		b.tail = append(b.tail, -1)
	}
	return bi
}

// add appends id to bucket bi's postings.
func (b *Builder) add(bi, id int32) {
	if b.live {
		if len(b.postings) >= math.MaxInt32 {
			panic("lsf: live builder exceeds 2^31 postings")
		}
		p := int32(len(b.postings))
		b.next = append(b.next, -1)
		if t := b.tail[bi]; t >= 0 {
			b.next[t] = p
		} else {
			b.head[bi] = p
		}
		b.tail[bi] = p
	}
	b.postings = append(b.postings, posting{bucket: bi, id: id})
}

// Add appends id to the bucket of key h, creating the bucket on first
// sight.
func (b *Builder) Add(h uint64, id int32) {
	b.add(b.bucketFor(h), id)
	b.totalFilters++
}

// AddBucket appends ids to the bucket of key h — Add for a whole
// posting list, with one table probe. A repeated key appends to its
// existing bucket, which is what segment compaction relies on when the
// same key arrives from several source segments.
func (b *Builder) AddBucket(h uint64, ids []int32) {
	bi := b.bucketFor(h)
	for _, id := range ids {
		b.add(bi, id)
	}
	b.totalFilters += len(ids)
}

// addFilterSet inserts one vector's filters, updating build statistics.
func (b *Builder) addFilterSet(id int32, fs *FilterSet) {
	if fs.Truncated {
		b.truncatedCount++
	}
	for k := 0; k < fs.Len(); k++ {
		b.Add(HashPath(fs.Path(k)), id)
	}
}

// Freeze counting-sorts the posting log into CSR form and returns the
// immutable index over data, which takes over the key table as it is.
// Posting order within a bucket is insertion order (the scatter is
// stable). Freeze writes nothing the builder reads, so a live builder
// keeps answering Lookup while and after it freezes; nothing may be
// added to it afterwards.
func (b *Builder) Freeze(data []bitvec.Vector) *Index {
	nb := b.buckets
	if uint64(len(b.postings)) > math.MaxUint32 {
		// CSR offsets are uint32; wrapping would silently alias buckets.
		panic("lsf: posting log exceeds 2^32 entries")
	}
	idOff := make([]uint32, nb+1)
	for _, p := range b.postings {
		idOff[p.bucket+1]++
	}
	for i := 0; i < nb; i++ {
		idOff[i+1] += idOff[i]
	}
	ids := make([]int32, len(b.postings))
	cursor := make([]uint32, nb)
	copy(cursor, idOff[:nb])
	for _, p := range b.postings {
		ids[cursor[p.bucket]] = p.id
		cursor[p.bucket]++
	}
	return &Index{
		engine:         b.engine,
		data:           data,
		tableKeys:      b.tableKeys,
		tableIdx:       b.tableIdx,
		tableMask:      b.tableMask,
		idOff:          idOff,
		ids:            ids,
		totalFilters:   b.totalFilters,
		truncatedCount: b.truncatedCount,
	}
}

// Reserve preallocates the arenas for an eighth more buckets and
// postings than like holds — like is typically the previous memtable's
// builder, since memtables fill to the same size — so growing to about
// that size copies nothing. The key table is not reserved: its size is
// the frozen layout's, set by the bucket count. Call it before the
// first Add.
func (b *Builder) Reserve(like *Builder) {
	b.reserve(like.buckets, len(like.postings))
}

// ReserveFor is Reserve sized from a frozen index instead of a builder:
// ix's buckets and postings per vector, times vectors — the memtable
// that follows a bulk load reserves this way, at the loaded segment's
// densities and its own capacity. The key table is not reserved either:
// an oversized empty table costs every lookup a cache miss.
func (b *Builder) ReserveFor(ix *Index, vectors int) {
	n := len(ix.data)
	if n == 0 || vectors <= 0 {
		return
	}
	scale := func(k int) int { return int(int64(k) * int64(vectors) / int64(n)) }
	b.reserve(scale(ix.buckets()), scale(ix.totalFilters))
}

// reserve grows the arenas for an eighth more than buckets buckets and
// postings postings.
func (b *Builder) reserve(buckets, postings int) {
	room := func(n int) int { return n + n/8 }
	nb, np := room(buckets), room(postings)
	b.postings = slices.Grow(b.postings, np)
	if b.live {
		b.head = slices.Grow(b.head, nb)
		b.tail = slices.Grow(b.tail, nb)
		b.next = slices.Grow(b.next, np)
	}
}

// ResidentBytes is the heap footprint of the builder's filled arenas —
// the key table, the posting log and a live builder's links — the
// memtable's counterpart of Index.ResidentBytes. Reserved capacity not
// yet written is not counted.
func (b *Builder) ResidentBytes() int64 {
	return int64(len(b.tableKeys))*8 + int64(len(b.tableIdx))*4 +
		int64(len(b.postings))*8 + int64(len(b.head)+len(b.tail)+len(b.next))*4
}

// AddTruncated accumulates the count of vectors whose filter generation
// hit the work budget.
func (b *Builder) AddTruncated(n int) { b.truncatedCount += n }

// Lookup returns the first posting of key h's bucket as a cursor for
// Posting, or -1 when the key has no posting. Live builders only. Never
// allocates.
func (b *Builder) Lookup(h uint64) int32 {
	bi, _ := b.find(h)
	if bi < 0 {
		return -1
	}
	return b.head[bi]
}

// Posting returns the id at cursor p and the cursor of the bucket's
// next posting, -1 after the last: postings come in insertion order.
func (b *Builder) Posting(p int32) (id, next int32) {
	return b.postings[p].id, b.next[p]
}
