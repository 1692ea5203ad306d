package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyScale is the smallest scale each generator accepts: both need a
// span long enough to classify patterns or arrivals.
var tinyScale = map[string]float64{
	"fileserver-closed":  0.03,
	"cloudblock-serial":  0.012,
	"cloudblock-shards2": 0.012,
	"fleet-ingest":       0.03,
}

// TestWorkloadsTiny runs every workload through the same path as a
// child process does — set-up, a timed and a profiled repetition, the
// output checks and the per-layer fold — at a tiny scale.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("replays four workloads")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(childSpec{Workload: w.name, Seed: defaultSeed, Scale: tinyScale[w.name], Reps: 1, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("output checks failed: %v", rep.Failures)
			}
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
			}
			got := map[string]float64{}
			var pct float64
			for _, m := range rep.Metrics {
				got[m.Name] = m.Value
				if strings.HasSuffix(m.Name, ".self_pct") {
					pct += m.Value
				}
			}
			if math.Abs(pct-100) > 0.5 {
				t.Errorf("self_pct sums to %g, want 100", pct)
			}
			want := []string{"records_per_s", "setup_s"}
			if w.name == "fleet-ingest" {
				want = append(want, "ingest_p50_ms", "fleet.post_samples")
			}
			for _, name := range want {
				if !(got[name] > 0) {
					t.Errorf("%s = %g, want > 0", name, got[name])
				}
			}
			if _, ok := got["traced.overhead_pct"]; !ok {
				t.Error("no traced.overhead_pct")
			}
		})
	}
}

func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"storage.cache":     40 * time.Millisecond,  // list and map calls under cache.go, inlined into array.go
		"storage.enclosure": 20 * time.Millisecond,  // enclosure.go
		"storage.shard":     40 * time.Millisecond,  // memmove under shard.go
		"storage.array":     110 * time.Millisecond, // array.go and config.go
		"trace":             200 * time.Millisecond, // allocation under a generic frame; socket read under NDJSON decode
		"workload":          80 * time.Millisecond,  // math/rand under a lazy stream
		"harness":           90 * time.Millisecond,  // the decorator's clock read, though esm code called it
		"runtime.gc":        210 * time.Millisecond, // mark worker and background sweeper
		"nethttp":           120 * time.Millisecond, // server connection with no esm frame
		"fleet":             140 * time.Millisecond, // lock under fleet.Feed
		"simclock":          170 * time.Millisecond,
		"other":             490 * time.Millisecond, // coroutine switch, an unlisted esm package, the scheduler
	}
	for _, b := range buckets {
		if got[b] != want[b] {
			t.Errorf("%s = %v, want %v", b, got[b], want[b])
		}
	}
	for b := range got {
		if _, ok := want[b]; !ok {
			t.Errorf("unexpected bucket %q", b)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// want is statistics.quantiles(xs, n=4) from Python.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2}, [3]float64{1.25, 3, 4.75}},
		{[]float64{0.5, 9, 2.5, 7, 1, 3}, [3]float64{0.875, 2.75, 7.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	rate, setup, failed := endToEnd[0], endToEnd[1], endToEnd[4]
	for _, c := range []struct {
		name     string
		d        metricDef
		old, cur []float64
		want     string
	}{
		{"faster", rate, []float64{100, 101, 99}, []float64{120, 121, 119}, "better"},
		{"slower", rate, []float64{100, 101, 99}, []float64{80, 81, 79}, "worse"},
		{"same", rate, []float64{100, 101, 99}, []float64{97, 98, 96}, "within-bound"},
		{"noisy", rate, []float64{100, 130, 70, 100}, []float64{100, 101, 99}, "unresolved"},
		{"set-up floor", setup, []float64{0.1, 0.1, 0.1}, []float64{0.3, 0.3, 0.3}, "within-bound"},
		{"set-up share", setup, []float64{10, 10, 10}, []float64{11.5, 11.5, 11.5}, "worse"},
		{"any failure", failed, []float64{0}, []float64{1e-7}, "worse"},
		{"no failures", failed, []float64{0}, []float64{0}, "within-bound"},
	} {
		if got, _ := verdict(c.d, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestOutputsDiff(t *testing.T) {
	want := outputs{Records: 10, CacheHits: 3, EnergyJ: 5e7}
	if d := (outputs{Records: 10, CacheHits: 3, EnergyJ: 5e7 + 0.13}).diff(want); d != "" {
		t.Errorf("energy 2.6e-9 relative apart failed: %s", d)
	}
	if d := (outputs{Records: 10, CacheHits: 3, EnergyJ: 5e7 + 5}).diff(want); d == "" {
		t.Error("energy 1e-7 relative apart passed")
	}
	if d := (outputs{Records: 10, CacheHits: 4, EnergyJ: 5e7}).diff(want); d == "" {
		t.Error("cache hits differing passed")
	}
}
