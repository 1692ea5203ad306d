package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestPerfettoRoundTrip: spans written through the tracer come back out
// of the reader with layout, metadata and args intact.
func TestPerfettoRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	trc := NewTracer(TracerOptions{Trace: &buf, Label: "rt"})
	// Recorded out of start order: the file must be sorted on Close.
	trc.IO(IOSpan{
		Item: 3, Enclosure: 1, Read: true, Start: 2 * time.Second,
		Response: 20 * time.Millisecond, Cause: IOSpinUpBlocked, PowerState: "off",
		SpinUpWait: 15 * time.Second, QueueWait: time.Millisecond, Service: 4 * time.Millisecond,
	}, 1)
	trc.IO(IOSpan{Item: 5, Enclosure: -1, Read: false, Start: time.Second,
		Response: 300 * time.Microsecond, Cause: IOCacheHit}, 0)
	trc.Management(ManagementSpan{
		Kind: "migration", Start: 3 * time.Second, End: 4 * time.Second,
		Item: 3, Enclosure: 1, Dst: 0, Bytes: 1 << 20,
	})
	trc.Management(ManagementSpan{
		Kind: "determination", Start: 5 * time.Second, End: 5 * time.Second,
		Item: -1, Enclosure: -1, Dst: -1, Cause: "period-end", N: 2,
	})
	if err := trc.Close(); err != nil {
		t.Fatal(err)
	}

	if err := ValidatePerfetto(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("emitted trace fails validation: %v", err)
	}
	pf, err := ReadPerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if pf.OtherData.Label != "rt" {
		t.Fatalf("label %q", pf.OtherData.Label)
	}
	if pf.OtherData.Latency == nil || pf.OtherData.Latency.Total.Count != 2 {
		t.Fatalf("summary not embedded: %+v", pf.OtherData)
	}

	var spans []TraceEvent
	threadNames := map[[2]int]string{}
	for _, ev := range pf.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name == "thread_name" {
				threadNames[[2]int{ev.Pid, ev.Tid}] = ev.Args["name"].(string)
			}
			continue
		}
		spans = append(spans, ev)
	}
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	// Sorted by start: cache hit (1s), physical read (2s), migration
	// (3s), determination (5s).
	if spans[0].Name != "write" || spans[0].Tid != perfettoCacheTid {
		t.Fatalf("span 0: %+v", spans[0])
	}
	if spans[1].Name != "read" || spans[1].Pid != perfettoPidStorage || spans[1].Tid != 2 {
		t.Fatalf("span 1: %+v", spans[1])
	}
	if spans[1].Args["spinup_wait_ns"].(float64) != 15e9 || spans[1].Args["power_state"] != "off" {
		t.Fatalf("span 1 args: %+v", spans[1].Args)
	}
	if spans[2].Name != "migration" || spans[2].Pid != perfettoPidManagement {
		t.Fatalf("span 2: %+v", spans[2])
	}
	if spans[2].Args["dst"].(float64) != 0 {
		t.Fatalf("span 2 args: %+v", spans[2].Args)
	}
	if spans[3].Name != "determination" {
		t.Fatalf("span 3: %+v", spans[3])
	}
	// A non-migration span must not claim a destination.
	if _, ok := spans[3].Args["dst"]; ok {
		t.Fatalf("determination carries dst: %+v", spans[3].Args)
	}
	// Thread metadata names every thread that appeared.
	for k, want := range map[[2]int]string{
		{perfettoPidStorage, perfettoCacheTid}: "cache",
		{perfettoPidStorage, 2}:                "enclosure 1",
		{perfettoPidManagement, 1}:             "migrations",
		{perfettoPidManagement, 4}:             "determinations",
	} {
		if got := threadNames[k]; got != want {
			t.Errorf("thread %v named %q, want %q", k, got, want)
		}
	}
}

// TestValidatePerfettoRejects: the validator fails on each way a trace
// can be malformed.
func TestValidatePerfettoRejects(t *testing.T) {
	encode := func(f PerfettoFile) *bytes.Reader {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(b)
	}
	cases := []struct {
		name string
		in   *bytes.Reader
		want string
	}{
		{"bad json", bytes.NewReader([]byte("{not json")), "parse"},
		{"no spans", encode(PerfettoFile{TraceEvents: []TraceEvent{
			{Name: "process_name", Ph: "M"},
		}}), "no span events"},
		{"negative duration", encode(PerfettoFile{TraceEvents: []TraceEvent{
			{Name: "read", Ph: "X", Ts: 1, Dur: -5},
		}}), "negative duration"},
		{"non-monotonic", encode(PerfettoFile{TraceEvents: []TraceEvent{
			{Name: "read", Ph: "X", Ts: 10, Dur: 1},
			{Name: "read", Ph: "X", Ts: 5, Dur: 1},
		}}), "precedes"},
	}
	for _, c := range cases {
		err := ValidatePerfetto(c.in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestTraceSmoke is the CI trace-validation hook: when ESM_TRACE_FILE
// names a Perfetto file written by esmbench -trace / esmd -trace, it is
// validated; otherwise a synthetic trace exercises the same contract
// in-process.
func TestTraceSmoke(t *testing.T) {
	if path := os.Getenv("ESM_TRACE_FILE"); path != "" {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := ValidatePerfetto(f); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return
	}
	var buf bytes.Buffer
	trc := NewTracer(TracerOptions{Trace: &buf, Label: "smoke"})
	for i := 0; i < 100; i++ {
		trc.IO(IOSpan{
			Item: int64(i % 4), Enclosure: 0, Read: i%3 != 0,
			Start: time.Duration(i) * time.Second, Response: 20 * time.Millisecond,
			Cause: IODiskOn, QueueWait: time.Millisecond, Service: 19 * time.Millisecond,
		}, 0)
	}
	trc.Management(ManagementSpan{Kind: "destage", Start: time.Minute, End: time.Minute + time.Second,
		Item: 2, Enclosure: 0, Dst: -1, Bytes: 8 << 20})
	if err := trc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
}
