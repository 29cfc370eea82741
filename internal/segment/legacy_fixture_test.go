package segment

import (
	"flag"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/hashing"
	"skewsim/internal/lsf"
)

// The legacy storage fixture (testdata/legacy-storage) is a storage
// directory written before buckets became their key: its frozen blobs
// carry the path sections. It holds three checkpoints of legacyPer
// vectors each: plain postings, compressed postings, and plain
// postings written under legacyFold, so its key table holds one key
// under many buckets. It was generated at commit cd8bf23, with this
// file copied into that tree, by
//
//	go test ./internal/segment -run '^TestWriteLegacyStorage$' -legacy-storage-out "$PWD/legacy-storage"
//
// Run in this tree, the same command writes the current layout: that
// is what TestStorageLegacyFixture compares the fixture against.

var legacyStorageOut = flag.String("legacy-storage-out", "", "TestWriteLegacyStorage writes the legacy storage fixture into this directory")

const legacyPer = 40

// legacyFold is the folded key the third checkpoint was written under.
func legacyFold(path []uint32) uint64 { return lsf.HashPath(path) & 63 }

func legacyConfig(t *testing.T, dir string) Config {
	params := testParams(testDist(t), 3*legacyPer, 2, 91)
	return Config{Params: params, N: 3 * legacyPer, MemtableSize: 1 << 20, MaxSegments: 100, StorageDir: dir}
}

func legacyData(t *testing.T) []bitvec.Vector {
	return testDist(t).SampleN(hashing.NewSplitMix64(92), 3*legacyPer)
}

// writeLegacyStorage writes the fixture's three checkpoints into dir,
// one index generation each, ids 0…3·legacyPer−1 in order.
func writeLegacyStorage(t *testing.T, dir string) {
	data := legacyData(t)
	for stage := 0; stage < 3; stage++ {
		cfg := legacyConfig(t, dir)
		cfg.CompressPostings = stage == 1
		if stage == 2 {
			prev := hashPath
			hashPath = legacyFold
			defer func() { hashPath = prev }()
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := stage * legacyPer; i < (stage+1)*legacyPer; i++ {
			if err := s.InsertWithID(int64(i), data[i]); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush()
		s.WaitIdle()
		s.Close()
	}
}

func TestWriteLegacyStorage(t *testing.T) {
	if *legacyStorageOut == "" {
		t.Skip("set -legacy-storage-out to write the fixture")
	}
	writeLegacyStorage(t, *legacyStorageOut)
}
