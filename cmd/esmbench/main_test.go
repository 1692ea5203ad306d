package main

import (
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFailsOnUncreatableTraceFile checks that a -trace file that
// cannot be created fails the run, naming the flag and the path, the
// way an uncreatable -provenance file does, instead of replaying
// untraced and succeeding without a Perfetto file.
func TestRunFailsOnUncreatableTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "t.json")
	err := run(0.05, "fileserver", 8, false, "", path, "", "", "", nil, nil)
	if err == nil {
		t.Fatal("run succeeded with an uncreatable -trace file")
	}
	if !errors.Is(err, fs.ErrNotExist) || !strings.HasPrefix(err.Error(), "-trace: ") ||
		!strings.Contains(err.Error(), filepath.Join("missing", "t-fileserver-")) {
		t.Fatalf("error %q, want a -trace: error naming the missing per-run file", err)
	}
}
