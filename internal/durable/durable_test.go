package durable

import (
	"path/filepath"
	"testing"
)

// TestSyncErrorsAreReturned: a directory fsync that cannot happen is
// reported, never swallowed (the store's and registry's commits rely
// on it). Replace's rename-failure cleanup is covered by both callers'
// TestCommitManifestCleansTmpOnRenameFailure.
func TestSyncErrorsAreReturned(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	if err := SyncDir(missing); err == nil {
		t.Error("SyncDir of a missing directory returned nil")
	}
	if err := SyncTree(missing); err == nil {
		t.Error("SyncTree of a missing directory returned nil")
	}
	if err := Replace(filepath.Join(missing, "MANIFEST.json"), []byte("x")); err == nil {
		t.Error("Replace into a missing directory returned nil")
	}
}
