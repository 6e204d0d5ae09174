package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileReplaces: WriteFile publishes the new bytes over an existing
// file and leaves only that file in the directory.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	for _, want := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("read %q, want %q", got, want)
		}
	}
	assertOnly(t, dir, "blob")
}

// TestWriteFileFailuresLeaveNoTemp drives every failure branch that can be
// reached without an fs fault seam — no temp file possible, fill failing,
// fsync failing, rename failing — and checks each leaves the directory as it
// was: no temp file, the old contents intact.
func TestWriteFileFailuresLeaveNoTemp(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		path func(dir string) string
		fill func(*os.File) error
	}{
		{"create", func(dir string) string { return filepath.Join(dir, "missing", "blob") }, nil},
		{"fill", nil, func(*os.File) error { return boom }},
		{"sync", nil, func(f *os.File) error { return f.Close() }}, // fsync of a closed file fails
		{"rename", func(dir string) string {
			// A non-empty directory cannot be renamed over.
			sub := filepath.Join(dir, "blob")
			if err := os.MkdirAll(filepath.Join(sub, "child"), 0o755); err != nil {
				t.Fatal(err)
			}
			return sub
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "blob")
			if tc.path != nil {
				path = tc.path(dir)
			} else if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			fill := tc.fill
			if fill == nil {
				fill = func(f *os.File) error { _, err := f.Write([]byte("new")); return err }
			}
			if err := writeFile(path, fill); err == nil {
				t.Fatal("writeFile succeeded, want an error")
			}
			if tc.name == "create" {
				assertOnly(t, dir)
			} else {
				assertOnly(t, dir, "blob")
			}
			if tc.path == nil {
				if got, _ := os.ReadFile(path); string(got) != "old" {
					t.Fatalf("old contents lost: %q", got)
				}
			}
		})
	}
}

// assertOnly fails unless dir holds exactly the named entries.
func assertOnly(t *testing.T, dir string, names ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if len(got) != len(names) {
		t.Fatalf("directory holds %v, want %v", got, names)
	}
	for i := range names {
		if got[i] != names[i] {
			t.Fatalf("directory holds %v, want %v", got, names)
		}
	}
}
