package replay

import (
	"fmt"
	"math/rand"
	"time"

	"esm/internal/trace"
)

// skewedTrace builds a four-enclosure workload with a hot/cold skew,
// mixed reads and writes, and periodic bursts at the cold enclosures —
// enough activity to provoke ESM determinations, migrations, spin-downs
// and spin-ups.
func skewedTrace(dur time.Duration, seed int64) (*trace.Catalog, []trace.LogicalRecord, []int) {
	cat := trace.NewCatalog()
	var ids []trace.ItemID
	placement := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i := range placement {
		ids = append(ids, cat.Add(fmt.Sprintf("item%02d", i), 256<<20))
	}
	rng := rand.New(rand.NewSource(seed))
	var recs []trace.LogicalRecord
	for tm := time.Duration(0); tm < dur; tm += time.Duration(500+rng.Intn(1500)) * time.Millisecond {
		// Zipf-ish: the first items take most of the traffic.
		k := rng.Intn(len(ids))
		if rng.Intn(4) != 0 {
			k = rng.Intn(3)
		}
		op := trace.OpRead
		if rng.Intn(4) == 0 {
			op = trace.OpWrite
		}
		recs = append(recs, trace.LogicalRecord{
			Time: tm, Item: ids[k],
			Offset: int64(rng.Intn(64)) * 4096, Size: int32(4096 * (1 + rng.Intn(8))),
			Op: op,
		})
	}
	// Periodic bursts to the coldest enclosure: spin-up pressure.
	for start := 3 * time.Minute; start < dur; start += 7 * time.Minute {
		for j := 0; j < 4; j++ {
			recs = append(recs, trace.LogicalRecord{
				Time: start + time.Duration(j)*250*time.Millisecond,
				Item: ids[6+j%2], Size: 16 << 10, Op: trace.OpRead,
			})
		}
	}
	trace.SortLogical(recs)
	return cat, recs, placement
}
