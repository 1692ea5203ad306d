package trace

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// benchTraces builds k sorted traces of n records each, the per-item
// streams the workload generators merge.
func benchTraces(k, n int) [][]LogicalRecord {
	traces := make([][]LogicalRecord, k)
	for i := range traces {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		traces[i] = sortedRecs(rng, n, ItemID(i))
	}
	return traces
}

// mergeAppendSort is the merge-free strategy: concatenate everything
// and re-sort. Kept here only as the benchmark baseline.
func mergeAppendSort(traces ...[]LogicalRecord) []LogicalRecord {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	out := make([]LogicalRecord, 0, total)
	for _, t := range traces {
		out = append(out, t...)
	}
	SortLogical(out)
	return out
}

func benchRecords(b *testing.B) [][]LogicalRecord {
	n := 250_000
	if testing.Short() {
		n = 25_000
	}
	return benchTraces(4, n)
}

// BenchmarkMerge drains MergeSources over slice sources at the fan-ins
// the workloads use: a handful of traces, fileserver at scale 0.25
// (about 1,800 item streams) and cloud-block (10,000 volumes). Each
// fan-in merges about the same record total, reported as ns/record.
func BenchmarkMerge(b *testing.B) {
	total := 1_000_000
	if testing.Short() {
		total = 100_000
	}
	for _, k := range []int{4, 1800, 10000} {
		b.Run(fmt.Sprintf("fanin=%d", k), func(b *testing.B) {
			traces := benchTraces(k, total/k)
			srcs := make([]Source, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, t := range traces {
					srcs[j] = NewSliceSource(t)
				}
				m := MergeSources(srcs...)
				n := 0
				for _, ok := m.Next(); ok; _, ok = m.Next() {
					n++
				}
				if n != k*(total/k) {
					b.Fatalf("merged %d records, want %d", n, k*(total/k))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k*(total/k)), "ns/record")
		})
	}
}

func BenchmarkMergeAppendSort(b *testing.B) {
	traces := benchRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := mergeAppendSort(traces...)
		if len(out) != 4*len(traces[0]) {
			b.Fatal("bad merge length")
		}
	}
}

// TestMergeStrategiesAgree pins the benchmark baseline to the production
// merge: both must produce identically ordered output on tie-free input.
func TestMergeStrategiesAgree(t *testing.T) {
	traces := benchTraces(4, 5_000)
	srcs := make([]Source, len(traces))
	for i, tr := range traces {
		srcs[i] = NewSliceSource(tr)
	}
	a, err := CollectSource(MergeSources(srcs...))
	if err != nil {
		t.Fatal(err)
	}
	bb := mergeAppendSort(traces...)
	if len(a) != len(bb) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(bb))
	}
	for i := range a {
		if a[i].Time != bb[i].Time {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i].Time, bb[i].Time)
		}
	}
	var prev time.Duration
	for i, r := range a {
		if r.Time < prev {
			t.Fatalf("record %d out of order", i)
		}
		prev = r.Time
	}
}
