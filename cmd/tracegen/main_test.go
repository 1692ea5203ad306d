package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"esm/internal/experiments"
	"esm/internal/trace"
)

// testScale is about the shortest file-server trace the generator
// accepts (ten minutes, some 80,000 records).
const testScale = 0.03

// TestRunWritesEveryFormat generates a short workload in each format and
// checks the trace decodes to exactly the workload's records and that
// the catalog and placement files round-trip.
func TestRunWritesEveryFormat(t *testing.T) {
	w, err := experiments.Build(experiments.FileServer, testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.CollectSource(w.Source())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the workload generates no records")
	}
	dir := t.TempDir()
	for _, format := range []string{"stream", "csv", "ndjson"} {
		out := filepath.Join(dir, "fs."+format)
		catPath := filepath.Join(dir, format+".items")
		placePath := filepath.Join(dir, format+".layout")
		if err := run("fileserver", testScale, 0, format, out, catPath, placePath); err != nil {
			t.Fatalf("%s: %v", format, err)
		}

		src, err := trace.OpenFile(out)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		got, err := trace.CollectSource(src)
		src.Close()
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: decoded %d records, not the workload's %d", format, len(got), len(want))
		}

		cf, err := os.Open(catPath)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := trace.ReadCatalog(cf)
		cf.Close()
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if cat.Len() != w.Catalog.Len() {
			t.Fatalf("%s: catalog has %d items, want %d", format, cat.Len(), w.Catalog.Len())
		}
		for _, id := range w.Catalog.IDs() {
			if cat.Item(id) != w.Catalog.Item(id) {
				t.Fatalf("%s: catalog item %d = %+v, want %+v", format, id, cat.Item(id), w.Catalog.Item(id))
			}
		}

		pf, err := os.Open(placePath)
		if err != nil {
			t.Fatal(err)
		}
		placement, err := trace.ReadPlacement(pf)
		pf.Close()
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !slices.Equal(placement, w.Placement) {
			t.Fatalf("%s: placement does not round-trip", format)
		}
	}
}

func TestRunRejectsUnknownFormat(t *testing.T) {
	dir := t.TempDir()
	err := run("fileserver", testScale, 0, "binary",
		filepath.Join(dir, "fs.bin"), filepath.Join(dir, "fs.items"), filepath.Join(dir, "fs.layout"))
	if err == nil || !strings.Contains(err.Error(), `"binary"`) {
		t.Fatalf("-format binary: got %v, want an unknown-format error naming it", err)
	}
}
