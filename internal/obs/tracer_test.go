package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestNilTracerIsNoOp: every method must be callable on a nil tracer —
// the disabled fast path the physical I/O loop relies on.
func TestNilTracerIsNoOp(t *testing.T) {
	var trc *Tracer
	trc.SetClasses([]uint8{1, 2})
	trc.IO(IOSpan{Item: 1, Response: time.Millisecond}, 1)
	trc.Management(ManagementSpan{Kind: "migration"})
	trc.Service(0, 1, FnMigration, time.Second, 1)
	trc.Residency(0, 0, 1, 1<<20)
	if s := trc.LatencySummary(); s != nil {
		t.Fatalf("nil tracer summary %+v", s)
	}
	if a := trc.Attribute(time.Hour, nil); a != nil {
		t.Fatalf("nil tracer attribution %+v", a)
	}
	if err := trc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTracerStampsClasses: I/O spans carry the class table installed by
// the last determination, and unknown items stay unknown.
func TestTracerStampsClasses(t *testing.T) {
	var buf bytes.Buffer
	trc := NewTracer(TracerOptions{Trace: &buf})
	trc.IO(IOSpan{Item: 0, Response: time.Millisecond, Cause: IODiskOn}, 0)
	trc.SetClasses([]uint8{2, 1})
	trc.IO(IOSpan{Item: 0, Response: time.Millisecond, Cause: IODiskOn}, 0)
	trc.IO(IOSpan{Item: 1, Response: time.Millisecond, Cause: IODiskOn}, 0)
	trc.IO(IOSpan{Item: 9, Response: time.Millisecond, Cause: IODiskOn}, 0)
	if err := trc.Close(); err != nil {
		t.Fatal(err)
	}
	pf, err := ReadPerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []any
	for _, ev := range pf.TraceEvents {
		if ev.Ph != "M" {
			got = append(got, ev.Args["class"])
		}
	}
	want := []any{"unknown", "P2", "P1", "unknown"}
	if len(got) != len(want) {
		t.Fatalf("%d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d class %v, want %v", i, got[i], want[i])
		}
	}
}

// TestTracerCloseClosesOnWriteError: a file whose encoding fails is
// still closed, and Close reports the write error.
func TestTracerCloseClosesOnWriteError(t *testing.T) {
	w := &failingWriter{failAt: 1}
	trc := NewTracer(TracerOptions{Trace: w})
	trc.IO(IOSpan{Item: 0, Response: time.Millisecond, Cause: IODiskOn}, 0)
	if err := trc.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close returned %v, want the write error", err)
	}
	if !w.closed {
		t.Fatal("the trace file was left open after a failed write")
	}
}

// TestTracerSummaryAndSpans: the streaming breakdown matches the spans
// recorded, and Close embeds the summary in the file.
func TestTracerSummaryAndSpans(t *testing.T) {
	var buf bytes.Buffer
	trc := NewTracer(TracerOptions{Trace: &buf, Label: "unit"})
	trc.Residency(0, 0, 4, 1<<20)
	trc.IO(IOSpan{Item: 4, Enclosure: -1, Read: true, Response: 300 * time.Microsecond, Cause: IOCacheHit}, 0)
	trc.IO(IOSpan{
		Item: 4, Enclosure: 0, Read: true, Start: time.Second,
		Response: 20 * time.Millisecond, Cause: IODiskOn,
		QueueWait: 3 * time.Millisecond, Service: 17 * time.Millisecond,
	}, 0)
	trc.Management(ManagementSpan{Kind: "migration", Start: 2 * time.Second, End: 3 * time.Second, Item: 4, Enclosure: 0, Dst: 1, Bytes: 1 << 20})

	sum := trc.LatencySummary()
	if sum.Total.Count != 2 {
		t.Fatalf("total count %d", sum.Total.Count)
	}
	trc.Attribute(time.Hour, []EnclosureEnergy{{ActiveJ: 10, IdleJ: 5}, {ActiveJ: 10, IdleJ: 5}})
	if err := trc.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing twice is safe (run() defers Close after an explicit one).
	if err := trc.Close(); err != nil {
		t.Fatal(err)
	}

	pf, err := ReadPerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if pf.OtherData == nil || pf.OtherData.Latency == nil || pf.OtherData.Attribution == nil {
		t.Fatal("otherData summary missing")
	}
	if pf.OtherData.Latency.Total.Count != 2 {
		t.Fatalf("embedded latency count %d", pf.OtherData.Latency.Total.Count)
	}
	if pf.OtherData.Attribution.TotalJ != 30 {
		t.Fatalf("embedded attribution total %v", pf.OtherData.Attribution.TotalJ)
	}
}

// TestTracerRegistryGauges: the registry serves the latency quantiles
// and attribution rolled up by the tracer.
func TestTracerRegistryGauges(t *testing.T) {
	reg := NewRegistry()
	trc := NewTracer(TracerOptions{Registry: reg})
	for i := 0; i < 100; i++ {
		trc.IO(IOSpan{Item: 0, Response: 25 * time.Millisecond, Cause: IODiskOn,
			QueueWait: time.Millisecond, Service: 24 * time.Millisecond}, 0)
	}
	trc.SetClasses([]uint8{3})
	trc.Attribute(time.Hour, []EnclosureEnergy{{ActiveJ: 42}})

	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`esm_io_latency_count{cause="disk-on"} 100`,
		`esm_io_latency_seconds{cause="disk-on",quantile="0.99"} 0.025`,
		`esm_io_phase_seconds{phase="service",quantile="0.5"} 0.024`,
		`esm_energy_attributed_joules{class="P3"} 42`,
		`esm_energy_function_joules{function="serving"} 42`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("registry output missing %q:\n%s", want, text)
		}
	}
	// One HELP/TYPE header per metric family, not per labeled variant.
	if n := strings.Count(text, "# TYPE esm_io_latency_seconds "); n != 1 {
		t.Errorf("esm_io_latency_seconds has %d TYPE headers, want 1", n)
	}
}
