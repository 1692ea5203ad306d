package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"esm/internal/core"
	"esm/internal/replay"
	"esm/internal/storage"
	"esm/internal/trace"
	"esm/internal/workload"
)

// workloadDef is one benchmark workload: its default time scale and the
// set-up that turns a seed into a bench ready for timed repetitions.
type workloadDef struct {
	name  string
	scale float64
	setup func(seed int64, scale float64, dir string) (bench, error)
}

// The four workloads. Each stresses a different layer mix; README.md
// records why each was chosen and which layer metrics it should move.
// The scales keep one repetition near a second, so a run of a few
// seconds holds enough repetitions for their median to be steady.
var workloads = []workloadDef{
	// Read-heavy, closed loop, lazily generated in memory: cache-hit and
	// spin-up serve paths, the closed-loop demux and workload merge, no
	// decode.
	{name: "fileserver-closed", scale: 0.25, setup: setupFileServerClosed},
	// Write-heavy, open loop, decoded from a stream file: decode and the
	// disk write path, with almost no cache hits.
	{name: "cloudblock-serial", scale: 0.03, setup: func(seed int64, scale float64, dir string) (bench, error) {
		return setupCloudBlock(seed, scale, dir, 1)
	}},
	// The same trace on the sharded engine with two lanes, isolating the
	// conductor/worker machinery.
	{name: "cloudblock-shards2", scale: 0.03, setup: func(seed int64, scale float64, dir string) (bench, error) {
		return setupCloudBlock(seed, scale, dir, 2)
	}},
	// The live plane: HTTP, NDJSON decode and per-array locking, with the
	// flight recorder, watchdog and provenance on.
	{name: "fleet-ingest", scale: 0.25, setup: setupFleetIngest},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// bench is a set-up workload.
type bench interface {
	// rep runs one repetition; traced adds the sampled span decorators.
	rep(traced bool) (*repResult, error)
	// reference returns the outputs every repetition must equal when the
	// workload has an independent engine to check against (nil if not).
	reference() (*outputs, error)
}

// outputs are the simulated results a repetition must reproduce: the
// counts exactly, the energy to energyTolerance.
type outputs struct {
	Records        int64   `json:"records"`
	Determinations int64   `json:"determinations"`
	SpinUps        int64   `json:"spin_ups"`
	PhysicalReads  int64   `json:"physical_reads"`
	PhysicalWrites int64   `json:"physical_writes"`
	CacheHits      int64   `json:"cache_hits"`
	MigratedBytes  int64   `json:"migrated_bytes"`
	EnergyJ        float64 `json:"energy_j"`
}

// energyTolerance is the relative energy agreement required between
// runs. Destaging of write-delay items that lose their selection runs
// in map-iteration order (storage/array.go), so runs of one trace can
// end up to 2.4e-9 apart (0.13 J of 5.4e7 J, closed-loop fileserver at
// seed 504), though every count agrees.
const energyTolerance = 1e-8

// diff describes how o differs from want, or returns "" if it matches.
func (o outputs) diff(want outputs) string {
	counts := []struct {
		name      string
		got, want int64
	}{
		{"records", o.Records, want.Records},
		{"determinations", o.Determinations, want.Determinations},
		{"spin_ups", o.SpinUps, want.SpinUps},
		{"physical_reads", o.PhysicalReads, want.PhysicalReads},
		{"physical_writes", o.PhysicalWrites, want.PhysicalWrites},
		{"cache_hits", o.CacheHits, want.CacheHits},
		{"migrated_bytes", o.MigratedBytes, want.MigratedBytes},
	}
	for _, c := range counts {
		if c.got != c.want {
			return fmt.Sprintf("%s %d, want %d", c.name, c.got, c.want)
		}
	}
	if math.Abs(o.EnergyJ-want.EnergyJ) > energyTolerance*math.Abs(want.EnergyJ) {
		return fmt.Sprintf("energy_j %.6f, want %.6f", o.EnergyJ, want.EnergyJ)
	}
	return ""
}

// repResult is what one repetition measured.
type repResult struct {
	wall          time.Duration
	records       int64 // records completed, over all arrays
	attempted     int64 // records submitted, or POSTs sent
	failed        int64
	reads, writes int64 // logical, over all arrays
	delayedWrites int64
	postsMS       []float64 // POST round trips (fleet-ingest)
	out           []outputs // one per array
	// Sampled spans, filled on traced repetitions only.
	next, logical, physical span
}

// replayBench replays a trace offline with replay.Execute under ESM.
type replayBench struct {
	cat        *trace.Catalog
	placement  []int
	enclosures int
	duration   time.Duration
	closedLoop bool
	shards     int
	open       func() (trace.Source, error)
}

func setupFileServerClosed(seed int64, scale float64, _ string) (bench, error) {
	cfg := workload.DefaultFileServerConfig().Scaled(scale)
	cfg.Seed = seed
	w, err := workload.GenerateFileServer(cfg)
	if err != nil {
		return nil, err
	}
	return &replayBench{
		cat: w.Catalog, placement: w.Placement, enclosures: w.Enclosures,
		duration: w.Duration, closedLoop: true,
		open: func() (trace.Source, error) { return w.Source(), nil },
	}, nil
}

func setupCloudBlock(seed int64, scale float64, dir string, shards int) (bench, error) {
	cfg := workload.DefaultCloudBlockConfig().Scaled(scale)
	cfg.Seed = seed
	w, err := workload.GenerateCloudBlock(cfg)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "cloudblock.stream")
	if _, err := writeTrace(path, w.Source(), func(f io.Writer) appender { return trace.NewStreamWriter(f) }); err != nil {
		return nil, err
	}
	return &replayBench{
		cat: w.Catalog, placement: w.Placement, enclosures: w.Enclosures,
		duration: w.Duration, shards: shards,
		open: func() (trace.Source, error) { return trace.OpenFile(path) },
	}, nil
}

func (b *replayBench) rep(traced bool) (*repResult, error) { return b.replay(b.shards, traced) }

// reference replays serially when the bench runs sharded: the sharded
// engine must reproduce the serial one.
func (b *replayBench) reference() (*outputs, error) {
	if b.shards <= 1 {
		return nil, nil
	}
	r, err := b.replay(1, false)
	if err != nil {
		return nil, err
	}
	return &r.out[0], nil
}

func (b *replayBench) replay(shards int, traced bool) (*repResult, error) {
	src, err := b.open()
	if err != nil {
		return nil, err
	}
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	esm, err := core.NewESM(core.DefaultParams())
	if err != nil {
		return nil, err
	}
	run := replay.Run{
		Catalog:    b.cat,
		Source:     src,
		Placement:  b.placement,
		Storage:    storage.DefaultConfig(b.enclosures),
		Policy:     esm,
		Duration:   b.duration,
		ClosedLoop: b.closedLoop,
		Shards:     shards,
	}
	ms := &meteredSource{Source: src}
	mp := &meteredPolicy{Policy: esm}
	if traced {
		run.Source, run.Policy = ms, mp
	}
	start := time.Now()
	res, err := replay.Execute(run)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	out := outputs{
		Records:        res.Resp.Count(),
		Determinations: res.Determinations,
		SpinUps:        int64(res.SpinUps),
		PhysicalReads:  res.Storage.PhysicalReads,
		PhysicalWrites: res.Storage.PhysicalWrites,
		CacheHits:      res.Storage.CacheHits,
		MigratedBytes:  res.Storage.MigratedBytes,
		EnergyJ:        res.EnergyJ,
	}
	return &repResult{
		wall:          wall,
		records:       out.Records,
		attempted:     out.Records + res.Faults.FailedAppIOs,
		failed:        res.Faults.FailedAppIOs,
		reads:         res.Resp.Reads(),
		writes:        out.Records - res.Resp.Reads(),
		delayedWrites: res.Storage.DelayedWrites,
		out:           []outputs{out},
		next:          ms.next,
		logical:       mp.logical,
		physical:      mp.physical,
	}, nil
}

// appender is the shape of the incremental trace codecs.
type appender interface {
	Append(trace.LogicalRecord) error
	Close() error
}

// traceCounts are the logical record counts of a written trace.
type traceCounts struct{ records, reads int64 }

// writeTrace drains src into a new file at path through the codec enc
// builds.
func writeTrace(path string, src trace.Source, enc func(io.Writer) appender) (traceCounts, error) {
	var n traceCounts
	f, err := os.Create(path)
	if err != nil {
		return n, err
	}
	defer f.Close()
	w := enc(f)
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Append(rec); err != nil {
			return n, err
		}
		n.records++
		if rec.Op == trace.OpRead {
			n.reads++
		}
	}
	if err := src.Err(); err != nil {
		return n, err
	}
	if err := w.Close(); err != nil {
		return n, err
	}
	return n, f.Close()
}
