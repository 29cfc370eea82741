package lsf

import (
	"bytes"
	"strings"
	"testing"

	"skewsim/internal/bitvec"
)

func TestIndexWriteReadRoundTrip(t *testing.T) {
	e, data := fig1TestEngine(t, 250)
	ix, err := BuildIndex(e, data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadIndexFrom(&buf, e, data)
	if err != nil {
		t.Fatal(err)
	}
	if !indexesEqual(ix, back) {
		t.Fatal("round trip changed the index")
	}
	// Queries behave identically.
	for _, q := range data[:30] {
		id1, s1, st1, f1 := ix.Query(q, 0.6, bitvec.BraunBlanquetMeasure)
		id2, s2, st2, f2 := back.Query(q, 0.6, bitvec.BraunBlanquetMeasure)
		if id1 != id2 || s1 != s2 || st1 != st2 || f1 != f2 {
			t.Fatal("restored index answers differently")
		}
	}
}

func TestIndexWriteDeterministic(t *testing.T) {
	e, data := fig1TestEngine(t, 100)
	ix, _ := BuildIndex(e, data)
	var a, b bytes.Buffer
	if _, err := ix.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialization not deterministic")
	}
}

func TestReadIndexFromRejectsBadMagic(t *testing.T) {
	e, data := fig1TestEngine(t, 10)
	if _, err := ReadIndexFrom(strings.NewReader("NOTANINDEX"), e, data); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadIndexFromRejectsTruncated(t *testing.T) {
	e, data := fig1TestEngine(t, 100)
	ix, _ := BuildIndex(e, data)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 7, 20, buf.Len() / 2, buf.Len() - 1} {
		r := bytes.NewReader(buf.Bytes()[:cut])
		if _, err := ReadIndexFrom(r, e, data); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestReadIndexFromRejectsOutOfRangeIDs(t *testing.T) {
	e, data := fig1TestEngine(t, 100)
	ix, _ := BuildIndex(e, data)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Load against a smaller dataset: stored ids must be rejected.
	if _, err := ReadIndexFrom(bytes.NewReader(buf.Bytes()), e, data[:5]); err == nil {
		t.Fatal("out-of-range ids accepted")
	}
}

func TestReadIndexFromNilEngine(t *testing.T) {
	if _, err := ReadIndexFrom(strings.NewReader(""), nil, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
}
