package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// powerLine is one line of the log as the Recorder writes it.
const powerLine = `{"seq":1,"t_ns":1,"type":"power_off","power":{"enclosure":0,"state":"off","cause":"idle-timeout"}}` + "\n"

// TestReadEventsLongLines: a cache-select event naming tens of
// thousands of items produces a JSONL line far beyond bufio.Scanner's
// 64 KiB default; the reader must round-trip it intact.
func TestReadEventsLongLines(t *testing.T) {
	items := make([]int64, 40000)
	for i := range items {
		items[i] = int64(i)
	}
	var buf bytes.Buffer
	rec := New(Options{Log: &buf})
	rec.Log(time.Second, Event{Type: EvCacheSelect, Cache: &CacheEvent{Function: "preload", Items: items}})
	rec.Log(2*time.Second, Event{Type: EvPowerOff, Power: &PowerEvent{Enclosure: 3, State: "off", Cause: "policy"}})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if lineLen := bytes.IndexByte(buf.Bytes(), '\n'); lineLen < 128*1024 {
		t.Fatalf("fixture line only %d bytes; grow the item list", lineLen)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	if got := events[0].Cache; got == nil || len(got.Items) != len(items) ||
		got.Items[0] != 0 || got.Items[len(items)-1] != int64(len(items)-1) {
		t.Fatalf("long event mangled: %d items", len(events[0].Cache.Items))
	}
	if events[1].Power == nil || events[1].Power.Enclosure != 3 {
		t.Fatalf("event after long line mangled: %+v", events[1])
	}
}

// TestReadEventsLineNumbers: errors point at the right file line,
// counting the lines before it, and a log whose last line lacks its
// newline fails on that line.
func TestReadEventsLineNumbers(t *testing.T) {
	second := strings.Replace(powerLine, `"seq":1`, `"seq":2`, 1)
	_, err := ReadEvents(strings.NewReader(powerLine + second + "not json"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %v, want line 3", err)
	}

	events, err := ReadEvents(strings.NewReader(powerLine + second))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Seq != 2 {
		t.Fatalf("events %+v", events)
	}
	_, err = ReadEvents(strings.NewReader(powerLine + strings.TrimSuffix(second, "\n")))
	if err == nil || !strings.Contains(err.Error(), "line 2: missing newline") {
		t.Fatalf("error %v, want line 2: missing newline", err)
	}
}

// TestReadEventsRejects feeds the reader malformed logs: each must fail
// with an error naming the line, never panic and never yield events.
func TestReadEventsRejects(t *testing.T) {
	bad := func(old, new string) string { return powerLine + strings.Replace(powerLine, old, new, 1) }
	for _, tc := range []struct {
		name, in, want string
	}{
		{"blank line", powerLine + "\n", "line 2: "},
		{"crlf line", strings.Replace(powerLine, "\n", "\r\n", 1), "line 1: not a line of the log"},
		{"missing final newline", strings.TrimSuffix(powerLine, "\n"), "line 1: missing newline"},
		{"no payload", `{"seq":1,"t_ns":5,"type":"power_on","run":"x"}` + "\n", `line 1: no payload for type "power_on"`},
		{"no alert payload", `{"seq":1,"t_ns":5,"type":"alert","run":"x"}` + "\n", `line 1: no payload for type "alert"`},
		{"payload of another type", bad(`"type":"power_off"`, `"type":"fault"`), `line 2: no payload for type "fault"`},
		{"unknown type", bad(`"type":"power_off"`, `"type":"bogus"`), `line 2: no payload for type "bogus"`},
		{"two payloads", bad(`}}`, `},"period":{"old_ns":1,"new_ns":2}}`), "line 2: 2 payloads, want one"},
		{"unknown key", bad(`"seq":1`, `"seq":1,"x":1`), "line 2: not a line of the log"},
		{"missing key", bad(`,"cause":"idle-timeout"`, ``), "line 2: not a line of the log"},
		{"reordered keys", bad(`"seq":1,"t_ns":1`, `"t_ns":1,"seq":1`), "line 2: not a line of the log"},
		{"non-canonical number", bad(`"t_ns":1`, `"t_ns":1e0`), "line 2: "},
		{"non-canonical time", bad(`"t_ns":1`, `"t_ns":1.0`), "line 2: "},
		{"non-numeric field", bad(`"enclosure":0`, `"enclosure":two`), "line 2: "},
		{"fractional id", bad(`"enclosure":0`, `"enclosure":0.5`), "line 2: "},
		{"quoted field", bad(`"seq":1`, `"seq":"1"`), "line 2: "},
		{"non-numeric time", bad(`"t_ns":1`, `"t_ns":soon`), "line 2: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events, err := ReadEvents(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if events != nil {
				t.Fatalf("a failed read returned %d events", len(events))
			}
		})
	}
}
