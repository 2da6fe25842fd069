// Package durable holds the crash-safe file primitives the corpus store
// and the model registry commit through: write-and-fsync, atomic
// replace (tmp file, fsync, rename, directory fsync), and a one-level
// tree fsync. Every fsync error, directory fsyncs included, is returned
// to the caller, so a commit is never reported durable when it is not.
package durable

import (
	"os"
	"path/filepath"
	"runtime"
)

// WriteFile writes data to path (created or truncated) and fsyncs it
// before closing.
func WriteFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Replace atomically replaces path with data: it writes and fsyncs
// path+".tmp", renames it over path and fsyncs the parent directory.
// A crash leaves either the old contents or the new ones. When the
// write or the rename fails the tmp file is removed, so no half-commit
// residue survives.
func Replace(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := WriteFile(tmp, data); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup of the failed write
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup of the failed rename
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so the creations and renames in it are
// durable. Windows cannot fsync a directory handle and persists
// renames without one, so there it is a no-op.
func SyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// SyncTree fsyncs every regular file directly under dir, then dir
// itself, so a directory written with plain writes is durable before a
// manifest names it.
func SyncTree(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, de.Name()))
		if err != nil {
			return err
		}
		serr := f.Sync()
		f.Close()
		if serr != nil {
			return serr
		}
	}
	return SyncDir(dir)
}
