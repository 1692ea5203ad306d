// Chrome trace-event (Perfetto) export: the Tracer's file writer, which
// renders a run's spans into the JSON object format understood by
// ui.perfetto.dev and chrome://tracing, plus the reader and the
// validator behind the CI trace smoke test. esmstat decodes only the
// file's otherData.
//
// Layout: process 1 is storage I/O (one thread per enclosure, plus a
// cache thread), process 2 is storage management (one thread per
// management kind). Timestamps are the simulated clock expressed in
// microseconds; the exact nanosecond phase breakdown of every I/O
// rides in the event args. The end-of-run latency summary and energy
// attribution are embedded in otherData so `esmstat latency`/`attrib`
// can render them from the trace file alone.

package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// TraceEvent is one Chrome trace-event JSON entry.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// PerfettoOtherData is the run summary embedded next to the events.
type PerfettoOtherData struct {
	Label       string          `json:"label,omitempty"`
	Latency     *LatencySummary `json:"latency,omitempty"`
	Attribution *Attribution    `json:"attribution,omitempty"`
}

// PerfettoFile is the object-format trace file.
type PerfettoFile struct {
	TraceEvents []TraceEvent       `json:"traceEvents"`
	OtherData   *PerfettoOtherData `json:"otherData,omitempty"`
}

// The process ids of the two span families.
const (
	perfettoPidStorage    = 1
	perfettoPidManagement = 2
)

// perfettoCacheTid is the storage-process thread carrying cache hits.
// Enclosure e maps to thread e+1.
const perfettoCacheTid = 0

func managementTid(kind string) int {
	switch kind {
	case "migration", "migration-failed":
		return 1
	case "preload":
		return 2
	case "destage":
		return 3
	case "determination":
		return 4
	default:
		return 9
	}
}

func managementTidName(tid int) string {
	switch tid {
	case 1:
		return "migrations"
	case 2:
		return "preloads"
	case 3:
		return "destages"
	case 4:
		return "determinations"
	default:
		return "other"
	}
}

// perfettoWriter is the Tracer's trace file: it buffers spans as trace
// events and writes the file on close. Spans arrive in completion order
// but start earlier (an I/O's span begins at its arrival), so close
// sorts them by start timestamp to keep the emitted stream monotonic.
type perfettoWriter struct {
	w      io.Writer
	label  string
	events []TraceEvent
	// seen tracks (pid, tid) pairs needing thread metadata.
	seen map[[2]int]bool
}

func (p *perfettoWriter) ioSpan(sp *IOSpan) {
	name := "read"
	if !sp.Read {
		name = "write"
	}
	tid := perfettoCacheTid
	if sp.Cause != IOCacheHit {
		tid = sp.Enclosure + 1
	}
	args := map[string]any{
		"item":        sp.Item,
		"class":       ClassName(ClassIndex(sp.Class)),
		"cause":       sp.Cause.String(),
		"response_ns": int64(sp.Response),
	}
	if sp.Cause != IOCacheHit {
		args["power_state"] = sp.PowerState
		args["queue_wait_ns"] = int64(sp.QueueWait)
		args["service_ns"] = int64(sp.Service)
		if sp.SpinUpWait > 0 {
			args["spinup_wait_ns"] = int64(sp.SpinUpWait)
		}
	}
	p.add(TraceEvent{
		Name: name, Ph: "X",
		Ts:  float64(sp.Start) / 1e3,
		Dur: float64(sp.Response) / 1e3,
		Pid: perfettoPidStorage, Tid: tid,
		Args: args,
	})
}

func (p *perfettoWriter) managementSpan(sp *ManagementSpan) {
	args := map[string]any{"enclosure": sp.Enclosure}
	if sp.Item >= 0 {
		args["item"] = sp.Item
	}
	if sp.Dst >= 0 {
		args["dst"] = sp.Dst
	}
	if sp.Bytes > 0 {
		args["bytes"] = sp.Bytes
	}
	if sp.Cause != "" {
		args["cause"] = sp.Cause
	}
	if sp.N > 0 {
		args["n"] = sp.N
	}
	p.add(TraceEvent{
		Name: sp.Kind, Ph: "X",
		Ts:  float64(sp.Start) / 1e3,
		Dur: float64(sp.End-sp.Start) / 1e3,
		Pid: perfettoPidManagement, Tid: managementTid(sp.Kind),
		Args: args,
	})
}

func (p *perfettoWriter) add(ev TraceEvent) {
	p.seen[[2]int{ev.Pid, ev.Tid}] = true
	p.events = append(p.events, ev)
}

// close sorts the buffered events by timestamp, prepends the process
// and thread metadata, and writes the file with the end-of-run summary
// in otherData. It closes the writer when it is an io.Closer, on every
// path, and returns the first encoding or close error.
func (p *perfettoWriter) close(lat *LatencySummary, attrib *Attribution) error {
	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].Ts < p.events[j].Ts })
	meta := []TraceEvent{
		metaEvent("process_name", perfettoPidStorage, 0, "storage i/o"),
		metaEvent("process_name", perfettoPidManagement, 0, "storage management"),
	}
	tids := make([][2]int, 0, len(p.seen))
	for k := range p.seen {
		tids = append(tids, k)
	}
	sort.Slice(tids, func(i, j int) bool {
		if tids[i][0] != tids[j][0] {
			return tids[i][0] < tids[j][0]
		}
		return tids[i][1] < tids[j][1]
	})
	for _, k := range tids {
		name := ""
		if k[0] == perfettoPidStorage {
			if k[1] == perfettoCacheTid {
				name = "cache"
			} else {
				name = fmt.Sprintf("enclosure %d", k[1]-1)
			}
		} else {
			name = managementTidName(k[1])
		}
		meta = append(meta, metaEvent("thread_name", k[0], k[1], name))
	}
	file := PerfettoFile{
		TraceEvents: append(meta, p.events...),
		OtherData:   &PerfettoOtherData{Label: p.label, Latency: lat, Attribution: attrib},
	}
	err := json.NewEncoder(p.w).Encode(&file)
	if c, ok := p.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func metaEvent(name string, pid, tid int, value string) TraceEvent {
	return TraceEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": value}}
}

// ReadPerfetto parses a trace-event file written by a Tracer.
func ReadPerfetto(r io.Reader) (*PerfettoFile, error) {
	var f PerfettoFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("parse perfetto trace: %w", err)
	}
	return &f, nil
}

// ValidatePerfetto checks that r holds a well-formed trace: it parses,
// contains at least one non-metadata event, every duration is
// non-negative, and the non-metadata timestamps are monotonically
// non-decreasing. This is the CI smoke-test contract.
func ValidatePerfetto(r io.Reader) error {
	f, err := ReadPerfetto(r)
	if err != nil {
		return err
	}
	spans := 0
	last := -1.0
	for i, ev := range f.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		spans++
		if ev.Dur < 0 {
			return fmt.Errorf("event %d (%q): negative duration %v", i, ev.Name, ev.Dur)
		}
		if ev.Ts < last {
			return fmt.Errorf("event %d (%q): timestamp %v precedes %v", i, ev.Name, ev.Ts, last)
		}
		last = ev.Ts
	}
	if spans == 0 {
		return errors.New("trace holds no span events")
	}
	return nil
}
