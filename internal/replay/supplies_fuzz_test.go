package replay

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"esm/internal/simclock"
	"esm/internal/trace"
)

// issueStub is a closed-loop submit stub for engine-level tests: it
// answers record k (its Offset) with resp[k] and logs each issue.
type issueStub struct {
	resp   []time.Duration
	issued []issuedRec
}

// issuedRec is one issue as the engine made it.
type issuedRec struct {
	item         trace.ItemID
	at, origTime time.Duration
}

func (s *issueStub) submit(rec trace.LogicalRecord, origTime time.Duration) (time.Duration, error) {
	s.issued = append(s.issued, issuedRec{rec.Item, rec.Time, origTime})
	return s.resp[rec.Offset], nil
}

// runDemux replays recs, one time-ordered source, closed-loop over a
// catalog of items.
func runDemux(recs []trace.LogicalRecord, items int, submit func(trace.LogicalRecord, time.Duration) (time.Duration, error)) error {
	return runClosedLoop(trace.NewSliceSource(recs), catalogOf(items), submit)
}

// runItemStreams replays the streams, truncated at limit, closed-loop
// over cat.
func runItemStreams(streams []trace.ItemStream, limit time.Duration, cat *trace.Catalog, submit func(trace.LogicalRecord, time.Duration) (time.Duration, error)) error {
	return runClosedLoop(&streamsSource{streams: streams, limit: limit}, cat, submit)
}

// runClosedLoop replays src closed-loop over cat through the engine
// alone.
func runClosedLoop(src trace.Source, cat *trace.Catalog, submit func(trace.LogicalRecord, time.Duration) (time.Duration, error)) error {
	var clk simclock.Clock
	var evq simclock.EventQueue
	il, err := newItemLoop(src, cat, &clk, &evq, submit)
	if err != nil {
		return err
	}
	defer il.close()
	return il.run()
}

// catalogOf is a catalog of n 64 MiB items named item0, item1, ...
func catalogOf(n int) *trace.Catalog {
	cat := trace.NewCatalog()
	for i := 0; i < n; i++ {
		cat.Add(fmt.Sprintf("item%d", i), 64<<20)
	}
	return cat
}

// fuzzTrace turns fuzz bytes into a tiny closed-loop trace: the first
// byte picks 1–8 items, and each following triple one record (the gap
// since the record before, zero for half the values so times tie
// often; the item; and a response from zero up to ten seconds, a
// spin-up stall). Record k carries k in its Offset.
func fuzzTrace(data []byte) (items int, recs []trace.LogicalRecord, resp []time.Duration) {
	if len(data) == 0 {
		return 1, nil, nil
	}
	items = 1 + int(data[0]%8)
	var at time.Duration
	for i := 1; i+3 <= len(data) && len(recs) < 256; i += 3 {
		if gap := data[i]; gap >= 128 {
			at += time.Duration(gap-127) * time.Millisecond
		}
		r := time.Duration(data[i+2])
		resp = append(resp, r*r*150*time.Microsecond)
		recs = append(recs, trace.LogicalRecord{
			Time: at, Item: trace.ItemID(int(data[i+1]) % items),
			Offset: int64(len(recs)), Size: 4096, Op: trace.OpRead,
		})
	}
	return items, recs, resp
}

// FuzzClosedLoopSupplies replays a tiny trace closed-loop through both
// of the loop's record supplies: as one time-ordered source, admitted
// by time, and as one stream per item, each started at its From. Both
// must issue the same records at the same times.
func FuzzClosedLoopSupplies(f *testing.F) {
	// A record read first at a time for a higher item must not hold back
	// a later record at the same time for a lower item.
	f.Add([]byte{2, 0, 1, 0, 0, 2, 0, 0, 0, 0})
	// A stall on item 0 while the others tie around it.
	f.Add([]byte{3, 0, 0, 255, 0, 1, 0, 130, 0, 0, 0, 3, 9, 200, 2, 0, 0, 1, 40})
	// One item, back to back, with growing responses.
	f.Add([]byte{0, 0, 0, 1, 129, 0, 30, 0, 0, 90, 128, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		items, recs, resp := fuzzTrace(data)
		demux := &issueStub{resp: resp}
		if err := runDemux(recs, items, demux.submit); err != nil {
			t.Fatal(err)
		}

		var streams []trace.ItemStream
		for item := 0; item < items; item++ {
			var own []trace.LogicalRecord
			for _, rec := range recs {
				if int(rec.Item) == item {
					own = append(own, rec)
				}
			}
			if len(own) == 0 {
				continue
			}
			streams = append(streams, trace.ItemStream{Item: trace.ItemID(item), From: own[0].Time, Seq: func(yield func(trace.LogicalRecord) bool) {
				for _, rec := range own {
					if !yield(rec) {
						return
					}
				}
			}})
		}
		feed := &issueStub{resp: resp}
		if err := runItemStreams(streams, time.Hour, catalogOf(items), feed.submit); err != nil {
			t.Fatal(err)
		}

		if len(demux.issued) != len(recs) {
			t.Fatalf("the source issued %d of %d records", len(demux.issued), len(recs))
		}
		if !reflect.DeepEqual(feed.issued, demux.issued) {
			t.Fatalf("per-item streams issued %v, the time-ordered source %v", feed.issued, demux.issued)
		}
	})
}
