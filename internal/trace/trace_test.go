package trace

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestOpString(t *testing.T) {
	if OpRead.String() != "R" || OpWrite.String() != "W" {
		t.Fatalf("op strings: %s %s", OpRead, OpWrite)
	}
	if !strings.Contains(Op(9).String(), "9") {
		t.Fatalf("unknown op string %q", Op(9))
	}
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	a := c.Add("tpcc/stock.p0", 1<<30)
	b := c.Add("tpcc/stock.p1", 2<<30)
	if a == b {
		t.Fatal("duplicate IDs")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Name(a) != "tpcc/stock.p0" || c.Size(b) != 2<<30 {
		t.Fatal("catalog entry mismatch")
	}
	ids := c.IDs()
	if len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestCatalogDuplicatePanics(t *testing.T) {
	c := NewCatalog()
	c.Add("x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	c.Add("x", 2)
}

func TestSortLogical(t *testing.T) {
	recs := []LogicalRecord{
		{Time: 3 * time.Second, Item: 1},
		{Time: 1 * time.Second, Item: 2},
		{Time: 1 * time.Second, Item: 1, Offset: 5},
		{Time: 1 * time.Second, Item: 1, Offset: 2},
	}
	SortLogical(recs)
	want := []struct {
		t    time.Duration
		item ItemID
		off  int64
	}{
		{time.Second, 1, 2}, {time.Second, 1, 5}, {time.Second, 2, 0}, {3 * time.Second, 1, 0},
	}
	for i, w := range want {
		if recs[i].Time != w.t || recs[i].Item != w.item || recs[i].Offset != w.off {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], w)
		}
	}
}

// TestSummarize pins every Summary field on a trace whose highest item
// ID differs from its distinct-item count, plus the empty trace.
func TestSummarize(t *testing.T) {
	recs := []LogicalRecord{
		{Time: time.Second, Item: 4, Size: 100, Op: OpRead},
		{Time: 2 * time.Second, Item: 1, Size: 200, Op: OpWrite},
		{Time: 3 * time.Second, Item: 4, Size: 300, Op: OpRead},
	}
	s, err := SummarizeSource(NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	want := Summary{
		Records: 3, Reads: 2, Writes: 1, Bytes: 600,
		Start: time.Second, End: 3 * time.Second,
		Items: 2, MaxItem: 4, ReadFrac: 2.0 / 3,
	}
	if s != want {
		t.Fatalf("summary %+v, want %+v", s, want)
	}
	if !strings.Contains(s.String(), "3 records") {
		t.Fatalf("summary string %q", s)
	}
	if s, err := SummarizeSource(NewSliceSource(nil)); err != nil || s != (Summary{}) {
		t.Fatalf("empty summary %+v, err %v", s, err)
	}
}

func randomRecords(rng *rand.Rand, n int) []LogicalRecord {
	recs := make([]LogicalRecord, n)
	var t time.Duration
	for i := range recs {
		t += time.Duration(rng.Int63n(int64(time.Minute)))
		recs[i] = LogicalRecord{
			Time:   t,
			Item:   ItemID(rng.Intn(50)),
			Offset: rng.Int63n(1 << 40),
			Size:   int32(rng.Intn(1<<20) + 1),
			Op:     Op(rng.Intn(2)),
		}
	}
	return recs
}

// TestSortIdempotent: sorting a sorted trace must not change it.
func TestSortIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randomRecords(rng, 200)
		SortLogical(recs)
		before := append([]LogicalRecord(nil), recs...)
		SortLogical(recs)
		for i := range recs {
			if recs[i] != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
