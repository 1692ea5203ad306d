// Worker-pool scheduler for the experiment matrix. Every (workload,
// policy, sweep-point) replay is independent — it has its own clock,
// event queue, array, policy instance and trace source — so the matrix
// can run concurrently. Results always come back in job order, making
// parallel runs byte-identical to serial ones.

package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"esm/internal/replay"
)

var (
	parMu       sync.Mutex
	parallelism int
	peakWorkers int
)

// SetParallelism bounds how many replays the schedulers run at once.
// n <= 0 restores the default (GOMAXPROCS).
func SetParallelism(n int) {
	parMu.Lock()
	defer parMu.Unlock()
	if n < 0 {
		n = 0
	}
	parallelism = n
}

// Parallelism returns the current replay concurrency bound.
func Parallelism() int {
	parMu.Lock()
	defer parMu.Unlock()
	if parallelism > 0 {
		return parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// EffectiveParallelism returns the widest worker pool executeJobs has
// actually spawned so far in this process: the -parallel bound clamped
// to the largest job batch. It is what the bound really bought — asking
// for 64 workers on a 3-policy evaluation still runs 3-wide — and is
// what esmbench reports alongside GOMAXPROCS so over-asked bounds are
// visible instead of silently echoed back.
func EffectiveParallelism() int {
	parMu.Lock()
	defer parMu.Unlock()
	return peakWorkers
}

// noteWorkers records the worker count a batch actually ran with.
func noteWorkers(n int) {
	parMu.Lock()
	defer parMu.Unlock()
	if n > peakWorkers {
		peakWorkers = n
	}
}

// runJob is one schedulable replay. The label names the run
// (workload/policy, plus the sweep point where applicable) so failures
// from concurrent runs stay attributable.
type runJob struct {
	label string
	run   replay.Run
}

// executeJobs runs the jobs on a bounded worker pool and returns their
// results in job order. The jobs must be fully isolated: shared state is
// limited to read-only inputs (catalogs, placements, materialized
// records) and mutex-protected recorders/sinks. On failure the first
// error in job order is returned, wrapped with that job's label.
func executeJobs(jobs []runJob) ([]*replay.Result, error) {
	results := make([]*replay.Result, len(jobs))
	errs := make([]error, len(jobs))

	workers := Parallelism()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	noteWorkers(workers)
	if workers <= 1 {
		for i := range jobs {
			results[i], errs[i] = replay.Execute(jobs[i].run)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i], errs[i] = replay.Execute(jobs[i].run)
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", jobs[i].label, err)
		}
	}
	return results, nil
}
