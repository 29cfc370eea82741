package lsf

import (
	"bytes"
	"slices"
	"testing"
)

// liveIDs walks path's posting chain in a live builder.
func liveIDs(bl *Builder, h uint64, path []uint32) []int32 {
	var out []int32
	for p := bl.Lookup(h, path); p >= 0; {
		var id int32
		id, p = bl.Posting(p)
		out = append(out, id)
	}
	return out
}

// TestLiveBuilderCollisions keys every path by HashPath folded to 64
// values, so most buckets share a key with others, and checks a live
// builder against a plain map: while it grows (through several table
// doublings), after Freeze (the builder must stay readable), and in the
// frozen index it produced.
func TestLiveBuilderCollisions(t *testing.T) {
	e, data := parallelTestEngine(t, 1000)
	key := func(path []uint32) uint64 { return HashPath(path) & 63 }
	bl := NewLiveBuilder(e)
	want := map[string][]int32{}
	var paths [][]uint32
	check := func(stage string, lookup func(h uint64, path []uint32) []int32) {
		t.Helper()
		for _, path := range paths {
			if got, w := lookup(key(path), path), want[PathKey(path)]; !slices.Equal(got, w) {
				t.Fatalf("%s: path %v = %v, want %v", stage, path, got, w)
			}
		}
		if got := lookup(key([]uint32{1 << 30}), []uint32{1 << 30}); got != nil {
			t.Fatalf("%s: absent path found %v", stage, got)
		}
	}
	live := func(h uint64, path []uint32) []int32 { return liveIDs(bl, h, path) }
	for id, x := range data {
		fs := e.Filters(x)
		for _, path := range fs.Paths {
			k := PathKey(path)
			if _, ok := want[k]; !ok {
				paths = append(paths, path)
			}
			want[k] = append(want[k], int32(id))
			bl.Add(key(path), path, int32(id))
		}
		if id%100 == 0 {
			check("growing", live)
		}
	}
	if len(paths) < 256 {
		t.Fatalf("only %d distinct paths: the table never grew past a few doublings", len(paths))
	}
	ix := bl.Freeze(data)
	check("after freeze", live)
	check("frozen", func(h uint64, path []uint32) []int32 {
		r, ok := ix.PathRefHash(h, path)
		if !ok {
			return nil
		}
		return ix.RefIDs(r)
	})
	if got := ix.Stats().Buckets; got != len(paths) {
		t.Fatalf("frozen buckets = %d, want %d", got, len(paths))
	}
}

// TestBuildersFreezeIdentically: a live builder and a static one fed the
// same postings in BuildIndex's order freeze to BuildIndex's exact blob
// — bucket order is first sight and the table is the smallest one at
// load ≤ 1/2, whichever builder grew it.
func TestBuildersFreezeIdentically(t *testing.T) {
	e, data := parallelTestEngine(t, 80)
	ref, err := BuildIndex(e, data)
	if err != nil {
		t.Fatal(err)
	}
	want := frozenBytes(t, ref, false)
	for _, bl := range []*Builder{NewBuilder(e), NewLiveBuilder(e)} {
		for id, x := range data {
			fs := e.Filters(x)
			for _, path := range fs.Paths {
				bl.Add(HashPath(path), path, int32(id))
			}
			if fs.Truncated {
				bl.AddTruncated(1)
			}
		}
		ix := bl.Freeze(data)
		if got := frozenBytes(t, ix, false); !bytes.Equal(got, want) {
			t.Fatalf("live=%v: frozen blob differs from BuildIndex's", bl.live)
		}
		if size, nb := len(ix.tableIdx), ix.Stats().Buckets; size < 2*nb || (size > 4 && size/2 >= 2*nb) {
			t.Fatalf("live=%v: table of %d slots for %d buckets", bl.live, size, nb)
		}
	}
}
