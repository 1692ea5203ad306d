package workload

import (
	"testing"

	"esm/internal/trace"
)

// TestWorkloadsAreLazy pins the streaming contract: generators plan
// per-item streams, and Source re-yields the identical trace on every
// call.
func TestWorkloadsAreLazy(t *testing.T) {
	w, err := GenerateSynthetic(DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Streams) == 0 {
		t.Fatal("generator registered no streams")
	}

	first, err := trace.CollectSource(w.Source())
	if err != nil {
		t.Fatal(err)
	}
	second, err := trace.CollectSource(w.Source())
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("re-iterated stream sizes differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("record %d differs between iterations", i)
		}
	}
}

// TestSourceStopsAtDuration checks the merged stream honors the
// workload's nominal span exactly, like the old post-sort truncation.
func TestSourceStopsAtDuration(t *testing.T) {
	w, err := GenerateFileServer(DefaultFileServerConfig().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	src := w.Source()
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if rec.Time > w.Duration {
			t.Fatalf("record at %v beyond duration %v", rec.Time, w.Duration)
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}
