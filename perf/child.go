package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// childSpec is what the parent hands the child process of one workload.
type childSpec struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale,omitempty"` // 0 = the workload's default
	Reps     int     `json:"reps"`
	Seconds  float64 `json:"seconds"`
	// The workload is set up at least Setups times and until the set-ups
	// took SetupS seconds together.
	Setups int     `json:"setups"`
	SetupS float64 `json:"setup_s"`
	Trace  bool    `json:"trace"`
	// With Trace, traced repetitions run under one CPU profile, at least
	// one and until they took TraceS seconds together.
	TraceS float64 `json:"trace_s,omitempty"`
}

// A run sets its workload up at least minSetups times and until the
// set-ups took minSetupSeconds together; setup_s is their median. The
// median keeps one slow first allocation burst from deciding it, and the
// time floor gives millisecond set-ups enough samples to be stable.
const (
	minSetups       = 3
	minSetupSeconds = 0.25
)

// tracedSeconds is how long a run's traced repetitions last: at pprof's
// 100 Hz per busy core, several hundred samples, so that a layer of a
// few percent is not lost to rounding.
const tracedSeconds = 5

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is one workload's measured result.
type workloadReport struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Failures  []string `json:"failures,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	// Outputs are the first repetition's simulated results (the first
	// array's, on fleet-ingest): the values expected.json pins.
	Outputs outputs `json:"outputs"`
	// Samples holds every measured value behind the end-to-end metrics,
	// for the quartiles -compare reports.
	Samples map[string][]float64 `json:"samples"`
	Metrics []metric             `json:"metrics"`
}

// runWorkload sets the workload up, runs its timed repetitions and,
// when asked, profiled ones, then checks every output.
func runWorkload(spec childSpec) (*workloadReport, error) {
	def, err := lookupWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	scale := spec.Scale
	if scale == 0 {
		scale = def.scale
	}
	dir, err := os.MkdirTemp("", "perf-"+def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var b bench
	var setupS []float64
	// setUp builds the bench at least n times and until the builds took
	// floor seconds together, timing each from a collected heap.
	setUp := func(n int, floor float64) error {
		var spent float64
		for i := 0; i < max(n, 1) || spent < floor; i++ {
			runtime.GC()
			t0 := time.Now()
			nb, err := def.setup(spec.Seed, scale, dir)
			if err != nil {
				return fmt.Errorf("%s: set-up: %w", def.name, err)
			}
			d := time.Since(t0).Seconds()
			spent += d
			setupS = append(setupS, d)
			b = nb
		}
		return nil
	}
	if err := setUp(spec.Setups, spec.SetupS); err != nil {
		return nil, err
	}

	// Timed repetitions, telemetry off. Each starts from a collected heap
	// so one repetition's garbage is not billed to the next.
	var reps []*repResult
	var cpu, wall time.Duration
	var allocs, allocBytes uint64
	for len(reps) < spec.Reps || wall.Seconds() < spec.Seconds {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		r, err := b.rep(false)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", def.name, len(reps)+1, err)
		}
		cpu += cpuTime() - c0
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		wall += r.wall
		reps = append(reps, r)
		// A set-up far cheaper than a repetition is sampled again after
		// each one, for 1% of its time, so its median spans the host's
		// speed swings over the whole run rather than the first second.
		if median(setupS) < r.wall.Seconds()/100 {
			if err := setUp(1, r.wall.Seconds()/100); err != nil {
				return nil, err
			}
		}
	}

	var traced []*repResult
	var layers map[string]time.Duration
	if spec.Trace {
		prof := filepath.Join(dir, "cpu.pprof")
		if traced, err = profiledReps(b, prof, spec.TraceS); err != nil {
			return nil, fmt.Errorf("%s: traced repetition %d: %w", def.name, len(traced)+1, err)
		}
		if layers, err = profileLayers(prof); err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
	}
	ref, err := b.reference()
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", def.name, err)
	}

	rep := &workloadReport{Name: def.name, Outputs: reps[0].out[0]}
	rep.Failures = checkOutputs(def, spec.Seed, scale, reps, traced, ref)
	rep.Correct = len(rep.Failures) == 0

	var perS, walls, posts, postP50s []float64
	var timedRecords int64
	for _, r := range reps {
		timedRecords += r.records
		perS = append(perS, float64(r.records)/r.wall.Seconds())
		walls = append(walls, r.wall.Seconds())
		if len(r.postsMS) > 0 {
			posts = append(posts, r.postsMS...)
			postP50s = append(postP50s, median(r.postsMS))
		}
		rep.Attempted += r.attempted
		rep.Failed += r.failed
	}
	failedFrac := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	if !rep.Correct {
		failedFrac = 1
	}
	rep.Samples = map[string][]float64{
		"records_per_s": perS,
		"setup_s":       setupS,
		"failed_frac":   {failedFrac},
	}
	rep.Metrics = []metric{
		{"records_per_s", median(perS), "1/s"},
		{"setup_s", median(setupS), "s"},
	}
	if len(posts) > 0 {
		rep.Samples["ingest_p50_ms"] = postP50s
		rep.Metrics = append(rep.Metrics, metric{"ingest_p50_ms", median(posts), "ms"})
	}
	rep.Metrics = append(rep.Metrics, metric{"failed_frac", failedFrac, "1"})
	if len(traced) == 0 {
		return rep, nil
	}

	add := func(name string, v float64, unit string) {
		rep.Metrics = append(rep.Metrics, metric{name, v, unit})
	}
	var total time.Duration
	for _, d := range layers {
		total += d
	}
	var tracedRecords int64
	var tracedWalls []float64
	var next, logical, physical span
	for _, r := range traced {
		tracedRecords += r.records
		tracedWalls = append(tracedWalls, r.wall.Seconds())
		next.merge(r.next)
		logical.merge(r.logical)
		physical.merge(r.physical)
	}
	perRecord := func(x float64) float64 { return x / float64(max(tracedRecords, 1)) }
	for _, bk := range buckets {
		add(bk+".self_pct", 100*float64(layers[bk])/float64(max(total, 1)), "%")
		add(bk+".self_ns_per_record", perRecord(float64(layers[bk].Nanoseconds())), "ns/record")
	}
	perTimed := func(x uint64) float64 { return float64(x) / float64(max(timedRecords, 1)) }
	add("process.cpu_util", cpu.Seconds()/wall.Seconds(), "cores")
	add("runtime.allocs_per_record", perTimed(allocs), "allocs/record")
	add("runtime.bytes_per_record", perTimed(allocBytes), "B/record")

	first := reps[0]
	var sum outputs
	for _, o := range first.out {
		sum.SpinUps += o.SpinUps
		sum.PhysicalReads += o.PhysicalReads
		sum.PhysicalWrites += o.PhysicalWrites
		sum.CacheHits += o.CacheHits
		sum.MigratedBytes += o.MigratedBytes
		sum.Determinations += o.Determinations
	}
	frac := func(n, d int64) float64 { return float64(n) / float64(max(d, 1)) }
	add("storage.cache_hit_frac", frac(sum.CacheHits, first.reads), "1")
	add("storage.delayed_write_frac", frac(first.delayedWrites, first.writes), "1")
	add("storage.physical_ios_per_record", frac(sum.PhysicalReads+sum.PhysicalWrites, first.records), "1")
	add("storage.spin_ups", float64(sum.SpinUps), "count")
	add("storage.migrated_gb", float64(sum.MigratedBytes)/(1<<30), "GB")
	add("core.determinations", float64(sum.Determinations), "count")
	add("trace.next_ns", next.meanNS(), "ns")
	add("core.on_logical_ns", logical.meanNS(), "ns")
	add("core.on_physical_ns", physical.meanNS(), "ns")
	add("fleet.post_p99_ms", percentile(posts, 0.99), "ms")
	add("fleet.post_samples", float64(len(posts)), "count")
	add("traced.overhead_pct", 100*(median(tracedWalls)/median(walls)-1), "%")
	return rep, nil
}

// checkOutputs compares every repetition with the first: the traced
// ones too, on fleet-ingest each array, on cloudblock-shards2 the
// serial reference, and at the default seed and scale the values in
// expected.json.
func checkOutputs(def workloadDef, seed int64, scale float64, reps, traced []*repResult, ref *outputs) []string {
	var failures []string
	want := reps[0].out[0]
	check := func(label string, r *repResult) {
		for i, o := range r.out {
			if d := o.diff(want); d != "" {
				failures = append(failures, fmt.Sprintf("%s, output %d: %s", label, i+1, d))
			}
		}
	}
	for i, r := range reps {
		check(fmt.Sprintf("repetition %d", i+1), r)
	}
	for i, r := range traced {
		check(fmt.Sprintf("traced repetition %d", i+1), r)
	}
	if ref != nil {
		if d := want.diff(*ref); d != "" {
			failures = append(failures, "against the serial engine: "+d)
		}
	}
	if exp, ok := expectedFor(def.name, seed); ok && scale == def.scale {
		if d := want.diff(exp); d != "" {
			failures = append(failures, "against expected.json: "+d)
		}
	}
	return failures
}

// profiledReps runs traced repetitions under one CPU profile written to
// path, at least one and until they took seconds together. On an error
// it returns the repetitions that completed.
func profiledReps(b bench, path string, seconds float64) ([]*repResult, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	var reps []*repResult
	var wall time.Duration
	for len(reps) == 0 || wall.Seconds() < seconds {
		runtime.GC()
		r, err := b.rep(true)
		if err != nil {
			pprof.StopCPUProfile()
			return reps, err
		}
		wall += r.wall
		reps = append(reps, r)
	}
	pprof.StopCPUProfile()
	return reps, f.Close()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
