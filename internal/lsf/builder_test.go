package lsf

import (
	"bytes"
	"slices"
	"testing"
)

// liveIDs walks key h's posting chain in a live builder.
func liveIDs(bl *Builder, h uint64) []int32 {
	var out []int32
	for p := bl.Lookup(h); p >= 0; {
		var id int32
		id, p = bl.Posting(p)
		out = append(out, id)
	}
	return out
}

// TestLiveBuilderCollisions keys every path by HashPath folded to 64
// values, so most paths share their key with others, and checks a live
// builder while it grows (through table doublings), after Freeze (the
// builder must stay readable), and in the frozen index it produced.
// Paths under one key share its bucket: every key must hold what a
// static build under the same folded key holds — the postings of all
// its paths, in insertion order — which contains each path's postings
// in the full-key build.
func TestLiveBuilderCollisions(t *testing.T) {
	e, data := fig1TestEngine(t, 1000)
	key := func(path []uint32) uint64 { return HashPath(path) & 63 }
	full, err := BuildIndex(e, data)
	if err != nil {
		t.Fatal(err)
	}
	bl, static := NewLiveBuilder(e), NewBuilder(e)
	var paths [][]uint32
	seen := map[string]bool{}
	for id, x := range data {
		for _, path := range e.Filters(x).Paths {
			if !seen[PathKey(path)] {
				seen[PathKey(path)] = true
				paths = append(paths, path)
			}
			static.Add(key(path), int32(id))
		}
	}
	staticIx := static.Freeze(data)
	// want is the folded static build's bucket of h, over the ids added
	// so far (through id last).
	want := func(h uint64, last int32) []int32 {
		r, ok := staticIx.PathRefHash(h)
		if !ok {
			return nil
		}
		var out []int32
		for _, id := range staticIx.RefIDs(r) {
			if id <= last {
				out = append(out, id)
			}
		}
		return out
	}
	check := func(stage string, last int32, lookup func(h uint64) []int32) {
		t.Helper()
		for h := uint64(0); h < 64; h++ {
			if got, w := lookup(h), want(h, last); !slices.Equal(got, w) {
				t.Fatalf("%s: key %d = %v, want %v", stage, h, got, w)
			}
		}
		if got := lookup(1 << 40); got != nil {
			t.Fatalf("%s: absent key found %v", stage, got)
		}
	}
	live := func(h uint64) []int32 { return liveIDs(bl, h) }
	for id, x := range data {
		for _, path := range e.Filters(x).Paths {
			bl.Add(key(path), int32(id))
		}
		if id%100 == 0 {
			check("growing", int32(id), live)
		}
	}
	if len(paths) < 256 {
		t.Fatalf("only %d distinct paths: too few to crowd 64 keys", len(paths))
	}
	last := int32(len(data) - 1)
	ix := bl.Freeze(data)
	check("after freeze", last, live)
	check("frozen", last, func(h uint64) []int32 {
		r, ok := ix.PathRefHash(h)
		if !ok {
			return nil
		}
		return ix.RefIDs(r)
	})
	if got := ix.Stats().Buckets; got != 64 {
		t.Fatalf("frozen buckets = %d, want one per folded key (64)", got)
	}
	for _, path := range paths {
		r, _ := ix.PathRefHash(key(path))
		merged := ix.RefIDs(r)
		for _, id := range full.postings(path) {
			if !slices.Contains(merged, id) {
				t.Fatalf("path %v: full-key posting %d missing from its folded bucket", path, id)
			}
		}
	}
}

// TestBuildersFreezeIdentically: a live builder and a static one fed the
// same postings in BuildIndex's order freeze to BuildIndex's exact blob
// — bucket order is first sight and the table is the smallest one at
// load ≤ 1/2, whichever builder grew it.
func TestBuildersFreezeIdentically(t *testing.T) {
	e, data := fig1TestEngine(t, 80)
	ref, err := BuildIndex(e, data)
	if err != nil {
		t.Fatal(err)
	}
	want := frozenBytes(t, ref, false)
	for _, bl := range []*Builder{NewBuilder(e), NewLiveBuilder(e)} {
		for id, x := range data {
			fs := e.Filters(x)
			for _, path := range fs.Paths {
				bl.Add(HashPath(path), int32(id))
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
