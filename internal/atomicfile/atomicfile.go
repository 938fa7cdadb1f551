// Package atomicfile replaces a file's contents all-or-nothing: readers see
// either the old bytes or the new ones, never a truncated mix, and a crash
// mid-write leaves the old file in place. Every persistent artifact in the
// tree — checkpoints, the search memo, the tune winner cache,
// decision reports — is written through it.
//
// It does not order concurrent read-modify-write cycles: two savers that
// both merge with the file and then Write can still lose each other's
// update. Each Write uses its own temp file, so they cannot corrupt one
// another.
package atomicfile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Write creates path's directory if needed, streams fill into a fresh temp
// file beside path, syncs it to disk and renames it over path. On any error
// the temp file is removed and path is untouched.
func Write(path string, fill func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// A unique name in the target directory: same filesystem (rename stays
	// atomic), and two concurrent writers of one path never share a temp.
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	err = fill(f)
	if err == nil {
		// CreateTemp makes the file 0600; published files are world-readable.
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// WriteJSON writes v to path as indented JSON through Write.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", filepath.Base(path), err)
	}
	return Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
