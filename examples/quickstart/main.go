// Quickstart: generate a small synthetic workload, replay it twice —
// once without power saving and once under the paper's energy-efficient
// storage management — and print the energy saving.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"esm/internal/core"
	"esm/internal/policy"
	"esm/internal/replay"
	"esm/internal/storage"
	"esm/internal/workload"
)

func main() {
	// A one-hour mix: a few continuously hit items (P3), a dozen bursty
	// read-mostly items (P1) and some idle data (P0), on 4 enclosures.
	w, err := workload.GenerateSynthetic(workload.DefaultSyntheticConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d items, %d enclosures, %v\n",
		w.Catalog.Len(), w.Enclosures, w.Duration)

	// A trace source is single-use: give every replay its own.
	run := replay.Run{
		Catalog:    w.Catalog,
		Placement:  w.Placement,
		Storage:    storage.DefaultConfig(w.Enclosures),
		Duration:   w.Duration,
		ClosedLoop: w.ClosedLoop,
	}

	run.Policy = policy.NoPowerSaving{}
	run.Source = w.Source()
	base, err := replay.Execute(run)
	if err != nil {
		log.Fatal(err)
	}

	esm, err := core.NewESM(core.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	run.Policy = esm
	run.Source = w.Source()
	managed, err := replay.Execute(run)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %10s %12s %14s\n", "policy", "avg W", "response", "migrated")
	for _, r := range []*replay.Result{base, managed} {
		fmt.Printf("%-22s %10.1f %12v %11.2f GB\n",
			r.PolicyName, r.AvgEnclosureW, r.Resp.Mean().Round(10*time.Microsecond),
			float64(r.Storage.MigratedBytes)/(1<<30))
	}
	saving := (1 - managed.AvgEnclosureW/base.AvgEnclosureW) * 100
	fmt.Printf("\nenclosure power saving: %.1f%% (with %d placement determinations)\n",
		saving, managed.Determinations)
}
