package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"esm/internal/experiments"
)

// TestRunFailsOnUncreatableTraceFile checks that a -trace file that
// cannot be created fails the run, naming the flag and the path, the
// way an uncreatable -events file does, instead of replaying untraced
// and succeeding without a Perfetto file.
func TestRunFailsOnUncreatableTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "t.json")
	err := run(0.05, "fileserver", 8, false, "", path, "", "", nil, nil)
	if err == nil {
		t.Fatal("run succeeded with an uncreatable -trace file")
	}
	if !errors.Is(err, fs.ErrNotExist) || !strings.HasPrefix(err.Error(), "-trace: ") ||
		!strings.Contains(err.Error(), filepath.Join("missing", "t-fileserver-")) {
		t.Fatalf("error %q, want a -trace: error naming the missing per-run file", err)
	}
}

// TestRunWritesOneEventsFilePerReplay checks that -events gives every
// replay its own JSONL file, named like the -trace files, holding only
// that replay's records, so concurrent replays never interleave lines.
func TestRunWritesOneEventsFilePerReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	if err := run(0.05, "fileserver", 8, false, path, "", "", "", nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range experiments.PoliciesFor(0.05) {
		b, err := os.ReadFile(runFileFor(path, "fileserver", p.Name))
		if err != nil {
			t.Fatal(err)
		}
		if p.Name == "esm" && len(b) == 0 {
			t.Error("esm: no events")
		}
		for i, l := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
			if l != "" && !strings.Contains(l, `"run":"fileserver/`+p.Name+`"`) {
				t.Fatalf("%s: line %d is not this replay's: %s", p.Name, i+1, l)
			}
		}
	}
}
