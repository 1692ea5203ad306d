// Package trace defines the I/O trace model shared by the whole system:
// application-level (logical) records keyed by data item, storage-level
// (physical) records keyed by disk enclosure and block address, the item
// catalog that names data items, and codecs for storing traces on disk.
//
// The terminology follows the paper. A data item is a fragment of an
// application's data on one disk enclosure (a file for file servers, a
// table or index partition for a DBMS). A logical I/O trace record carries
// a timestamp, a data-item identifier, the offset within the item, the I/O
// size, and the I/O type. A physical record carries a timestamp, a disk
// enclosure, a block address, a size and an I/O type.
package trace

import (
	"fmt"
	"sort"
	"time"
)

// Op is the I/O type of a trace record.
type Op uint8

const (
	// OpRead is a read I/O.
	OpRead Op = iota
	// OpWrite is a write I/O.
	OpWrite
)

// String returns "R" or "W".
func (o Op) String() string {
	switch o {
	case OpRead:
		return "R"
	case OpWrite:
		return "W"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// ItemID identifies a data item within a Catalog. IDs are dense small
// integers so that per-item state can live in slices.
type ItemID int32

// NoItem is the zero ItemID used when an item reference is absent.
const NoItem ItemID = -1

// LogicalRecord is one application-level I/O.
type LogicalRecord struct {
	// Time is the virtual time the I/O was issued, measured from the start
	// of the trace.
	Time time.Duration
	// Item is the data item the I/O targets.
	Item ItemID
	// Offset is the byte offset within the data item.
	Offset int64
	// Size is the I/O size in bytes.
	Size int32
	// Op is the I/O type.
	Op Op
}

// PhysicalRecord is one storage-level I/O as observed beneath the block
// virtualization layer.
type PhysicalRecord struct {
	// Time is the virtual time the I/O reached the enclosure.
	Time time.Duration
	// Enclosure is the disk enclosure index.
	Enclosure int32
	// Block is the block (byte) address within the enclosure.
	Block int64
	// Size is the I/O size in bytes.
	Size int32
	// Op is the I/O type.
	Op Op
}

// Item is the catalog entry for a data item.
type Item struct {
	// Name is the application-level name, e.g. "tpcc/stock.p3" or
	// "vol07/file0042".
	Name string
	// Size is the item size in bytes.
	Size int64
}

// Catalog names the data items referenced by a logical trace. It is the
// "logical mapping information" half that identifies data; the placement of
// items onto volumes and enclosures is owned by the storage layer.
type Catalog struct {
	items  []Item
	byName map[string]ItemID
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byName: make(map[string]ItemID)}
}

// Add registers a data item and returns its ID. Adding a name twice panics:
// item names are created by workload generators and must be unique.
func (c *Catalog) Add(name string, size int64) ItemID {
	if _, ok := c.byName[name]; ok {
		panic("trace: duplicate item name " + name)
	}
	id := ItemID(len(c.items))
	c.items = append(c.items, Item{Name: name, Size: size})
	c.byName[name] = id
	return id
}

// Len returns the number of items in the catalog.
func (c *Catalog) Len() int { return len(c.items) }

// Item returns the catalog entry for id.
func (c *Catalog) Item(id ItemID) Item { return c.items[id] }

// Name returns the name of id.
func (c *Catalog) Name(id ItemID) string { return c.items[id].Name }

// Size returns the size in bytes of id.
func (c *Catalog) Size(id ItemID) int64 { return c.items[id].Size }

// IDs returns all item IDs in ascending order.
func (c *Catalog) IDs() []ItemID {
	ids := make([]ItemID, len(c.items))
	for i := range ids {
		ids[i] = ItemID(i)
	}
	return ids
}

// SortLogical sorts recs by time, breaking ties by item then offset, so a
// generated trace is in replay order and deterministic. pdqsort is
// unstable but deterministic for a given input, which is all the
// generators need.
func SortLogical(recs []LogicalRecord) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Time != recs[j].Time {
			return recs[i].Time < recs[j].Time
		}
		if recs[i].Item != recs[j].Item {
			return recs[i].Item < recs[j].Item
		}
		return recs[i].Offset < recs[j].Offset
	})
}

// Summary aggregates whole-trace statistics.
type Summary struct {
	Records  int
	Reads    int
	Writes   int
	Bytes    int64
	Start    time.Duration
	End      time.Duration
	Items    int // distinct items touched
	MaxItem  ItemID
	ReadFrac float64
}

// String formats the summary for human consumption.
func (s Summary) String() string {
	return fmt.Sprintf("%d records (%d R / %d W, %.1f%% read), %d items, %.2f GB, span %v",
		s.Records, s.Reads, s.Writes, s.ReadFrac*100, s.Items,
		float64(s.Bytes)/(1<<30), s.End-s.Start)
}
