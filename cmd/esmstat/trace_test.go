package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"esm/internal/trace"
)

// TestTraceAnalysisReadsEveryFormat writes one trace as stream, CSV and
// NDJSON and requires the same -trace report from each.
func TestTraceAnalysisReadsEveryFormat(t *testing.T) {
	dir := t.TempDir()
	cat := trace.NewCatalog()
	for i := 0; i < 4; i++ {
		cat.Add(fmt.Sprintf("vol%d/file%d", i/2, i), 1<<30)
	}
	catPath := filepath.Join(dir, "trace.items")
	var buf bytes.Buffer
	if err := trace.WriteCatalog(&buf, cat); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(catPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Item 0 is busy throughout, item 1 only in bursts a few minutes
	// apart, item 2 writes rarely and item 3 is never touched, so the
	// report spans several patterns.
	var recs []trace.LogicalRecord
	for tm := time.Duration(0); tm < 20*time.Minute; tm += 2 * time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: 0, Offset: int64(tm / time.Second * 4096), Size: 8 << 10, Op: trace.OpRead})
		if tm%(4*time.Minute) < 10*time.Second {
			recs = append(recs, trace.LogicalRecord{Time: tm, Item: 1, Size: 4096, Op: trace.OpRead})
		}
		if tm%(3*time.Minute) == 0 {
			recs = append(recs, trace.LogicalRecord{Time: tm, Item: 2, Size: 4096, Op: trace.OpWrite})
		}
	}

	type appender interface {
		Append(trace.LogicalRecord) error
		Close() error
	}
	formats := []struct {
		name      string
		newWriter func(io.Writer) appender
	}{
		{"stream", func(w io.Writer) appender { return trace.NewStreamWriter(w) }},
		{"csv", func(w io.Writer) appender { return trace.NewCSVWriter(w) }},
		{"ndjson", func(w io.Writer) appender { return trace.NewNDJSONWriter(w) }},
	}
	var want string
	for _, f := range formats {
		path := filepath.Join(dir, "trace."+f.name)
		fh, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := f.newWriter(fh)
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}

		var out bytes.Buffer
		if err := run(&out, path, catPath, 52*time.Second, 5); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if want == "" {
			want = out.String()
			for _, s := range []string{
				fmt.Sprintf("trace: %d records", len(recs)),
				"patterns (break-even 52s):",
				"vol0/file0",
			} {
				if !strings.Contains(want, s) {
					t.Fatalf("%s report lacks %q:\n%s", f.name, s, want)
				}
			}
			continue
		}
		if out.String() != want {
			t.Fatalf("%s report differs from stream's:\n%s\nwant:\n%s", f.name, out.String(), want)
		}
	}
}
