package mmapio

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenData: Data is the file's bytes, mapped where this build maps
// (unix without the purego tag) and read onto the heap elsewhere.
func TestOpenData(t *testing.T) {
	want := bytes.Repeat([]byte("skewsim mmapio "), 1000)
	m, err := Open(writeFile(t, want))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close()
	if !bytes.Equal(m.Data(), want) {
		t.Fatalf("Data: %d bytes differ from the file's %d", len(m.Data()), len(want))
	}
	if m.Bytes() != int64(len(want)) {
		t.Fatalf("Bytes = %d, want %d", m.Bytes(), len(want))
	}
	if m.Mapped() != mapsFiles {
		t.Fatalf("Mapped = %v, want %v in this build", m.Mapped(), mapsFiles)
	}
}

// TestOpenEmpty: a zero-length file has nothing to map; it opens as an
// empty heap copy in every build.
func TestOpenEmpty(t *testing.T) {
	m, err := Open(writeFile(t, nil))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close()
	if m.Mapped() || len(m.Data()) != 0 || m.Bytes() != 0 {
		t.Fatalf("empty file: Mapped=%v, %d bytes", m.Mapped(), len(m.Data()))
	}
}

func TestOpenMissing(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "missing"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open(missing) = %v, want fs.ErrNotExist", err)
	}
}

func TestCloseTwice(t *testing.T) {
	m, err := Open(writeFile(t, []byte("x")))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if m.Data() != nil {
		t.Fatal("Data survives Close")
	}
}
