package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateRenders = flag.Bool("update", false, "rewrite the pinned renders under testdata/renders")

// renderVariants are the golden decision streams of the replay package
// (internal/replay/testdata/golden), each with the alert rule that
// fires in it ("" when none does).
var renderVariants = []struct{ name, alert string }{
	{"faulted", "budget"},
	{"crowded", "spins"},
	{"abandoned", ""},
	{"faulted-closed", "budget"},
}

// TestPinnedRenders pins what `esmstat events`, `alerts` and `explain`
// print for every golden decision stream, byte for byte, so a change
// to the log's encoding or its reader cannot move a rendered line
// unnoticed. The base name of explain's input file is replaced by
// "<log>" on its first line. Run with -update to rewrite the files
// after an intended change.
func TestPinnedRenders(t *testing.T) {
	golden := filepath.Join("..", "..", "internal", "replay", "testdata", "golden")
	for _, v := range renderVariants {
		events := filepath.Join(golden, v.name+".events.jsonl")
		renders := []struct {
			kind   string
			render func(io.Writer) error
		}{
			{"events", func(w io.Writer) error { return runEvents(w, events, "", 0, 0) }},
			{"alerts", func(w io.Writer) error {
				_, err := renderAlertsLog(w, events, "")
				return err
			}},
			{"explain", func(w io.Writer) error {
				return runExplain(w, []string{"-since", "0s", events})
			}},
			{"explain-alert", func(w io.Writer) error {
				return runExplain(w, []string{"-alert", v.alert, "-window", "24h", events})
			}},
		}
		for _, r := range renders {
			if v.alert == "" && strings.Contains(r.kind, "alert") {
				continue
			}
			var buf bytes.Buffer
			if err := r.render(&buf); err != nil {
				t.Fatalf("%s %s: %v", v.name, r.kind, err)
			}
			got := strings.Replace(buf.String(), "explain "+filepath.Base(events)+":", "explain <log>:", 1)
			path := filepath.Join("testdata", "renders", v.name+"."+r.kind+".txt")
			if *updateRenders {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s: render differs from the pinned file:\n%s", path, got)
			}
		}
	}
}
