package atomicfile_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/atomicfile"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// dirNames lists a directory, to assert no temp file was left behind.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

func TestWriteReplacesAndCreatesDirectories(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	path := filepath.Join(dir, "f.json")
	for _, want := range []string{"first", "second, longer than the first"} {
		if err := atomicfile.Write(path, writeString(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read %q, %v; want %q", got, err, want)
		}
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want only f.json", names)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm()&0o044 == 0 {
		t.Fatalf("published file mode %v, %v; want group/world readable", st.Mode(), err)
	}
}

func TestWriteFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := atomicfile.Write(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := atomicfile.Write(path, func(w io.Writer) error {
		io.WriteString(w, "half a new fi")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write returned %v, want the fill error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("failed write left %v behind", names)
	}
	if err := atomicfile.WriteJSON(path, func() {}); err == nil {
		t.Fatal("WriteJSON of an unencodable value succeeded")
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed WriteJSON changed the file to %q", got)
	}
}
