// Sensor-archive scenario: the data-intensive application class the
// paper's introduction opens with, beyond the three it evaluates. An
// archive is the method's best case — almost everything is P0/P1 once
// the continuously appended active segments (P3) are consolidated —
// and the run shows the full pipeline: classification, hot/cold
// separation, consolidation, write delay for the compaction output and
// preload for hot analytic inputs.
//
// Run with:
//
//	go run ./examples/sensorarchive
package main

import (
	"fmt"
	"log"
	"time"

	"esm/internal/core"
	"esm/internal/monitor"
	"esm/internal/policy"
	"esm/internal/replay"
	"esm/internal/storage"
	"esm/internal/workload"
)

func main() {
	w, err := workload.GenerateSensorArchive(workload.DefaultSensorConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor archive: %d items on %d enclosures, %v\n",
		w.Catalog.Len(), w.Enclosures, w.Duration)

	// The Fig. 6-style pattern mix of this application, fed straight off
	// the streaming trace source.
	mon := monitor.NewAppMonitor(w.Catalog.Len(), core.DefaultParams().BreakEven)
	src := w.Source()
	n := 0
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		mon.Record(rec)
		n++
	}
	if err := src.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("patterns over %d records: %s\n\n", n, core.MixOf(mon.EndPeriod(w.Duration)))

	run := replay.Run{
		Catalog:    w.Catalog,
		Placement:  w.Placement,
		Storage:    storage.DefaultConfig(w.Enclosures),
		Duration:   w.Duration,
		ClosedLoop: w.ClosedLoop,
	}

	fmt.Printf("%-10s %10s %9s %14s %10s\n", "policy", "avg W", "saving", "response", "off-time")
	var baseW float64
	pols := []policy.Policy{policy.NoPowerSaving{}, policy.FixedTimeout{}}
	if esm, err := core.NewESM(core.DefaultParams()); err == nil {
		pols = append(pols, esm)
	}
	for _, pol := range pols {
		run.Policy = pol
		run.Source = w.Source()
		res, err := replay.Execute(run)
		if err != nil {
			log.Fatal(err)
		}
		if baseW == 0 {
			baseW = res.AvgEnclosureW
		}
		var off float64
		for _, m := range res.StateMix {
			off += m.Off / float64(len(res.StateMix))
		}
		fmt.Printf("%-10s %10.1f %8.1f%% %14v %9.1f%%\n",
			res.PolicyName, res.AvgEnclosureW, (1-res.AvgEnclosureW/baseW)*100,
			res.Resp.Mean().Round(10*time.Microsecond), off*100)
	}
}
