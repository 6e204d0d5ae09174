package ckpt

import (
	"os"
	"path/filepath"
)

// WriteFile durably replaces path with data: it writes a temp file in the
// same directory, fsyncs it, renames it over path, then fsyncs the
// directory so the rename itself survives a crash. A reader (or a restarted
// process) sees either the old file or the complete new one, never a torn
// write, and no temp file outlives a failed call.
func WriteFile(path string, data []byte) error {
	return writeFile(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// writeFile is WriteFile with the temp file's contents produced by fill.
func writeFile(path string, fill func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	err = fill(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
