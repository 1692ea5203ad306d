// Command perf is the wall-clock benchmark of the storage manager. It
// runs four workloads through the public APIs — offline closed-loop
// replay, cloud-block replay serial and on two shards, and live fleet
// ingest over loopback HTTP — each in its own child process, checks
// every simulated output, and prints one line per metric:
//
//	<workload> <metric> <value> <unit>
//
// The last line of standard output is a JSON summary: whether every
// output was correct, the operations attempted and failed, and the
// end-to-end metrics (per-layer metrics with -trace 1).
//
// Usage, from the repository root (see README.md):
//
//	bash perf/bench.sh [-workload a,b] [-seed N] [-reps 5] [-seconds S] [-trace 1] [-out run.json]
//	bash perf/bench.sh -compare old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// defaultSeed is the generators' own default seed, whose outputs
// expected.json pins.
const defaultSeed = 42

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.String("workload", strings.Join(names, ","), "comma-separated workloads to run")
	seed := fs.Int64("seed", defaultSeed, "workload generator seed")
	reps := fs.Int("reps", 5, "minimum timed repetitions per workload")
	seconds := fs.Float64("seconds", 0, "minimum timed seconds per workload: repetitions continue until -reps and -seconds are both met")
	traceFlag := fs.Int("trace", 0, "1 adds CPU-profiled repetitions per workload and reports per-layer metrics")
	out := fs.String("out", "", "write the run as JSON to this file")
	compare := fs.Bool("compare", false, "compare two run files given as arguments: -compare old.json new.json")
	child := fs.String("child", "", "internal: run the workload described by this JSON spec and print its report")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perf: -compare needs two run files")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	case *child != "":
		var spec childSpec
		if err := json.Unmarshal([]byte(*child), &spec); err != nil {
			fmt.Fprintln(stderr, "perf: -child:", err)
			return 2
		}
		rep, err := runWorkload(spec)
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		return 0
	}

	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perf: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(stderr, "perf: -trace must be 0 or 1")
		return 2
	case *reps < 1 || *seconds < 0:
		fmt.Fprintln(stderr, "perf: -reps must be at least 1 and -seconds non-negative")
		return 2
	}
	selected := strings.Split(*list, ",")
	for _, name := range selected {
		if _, err := lookupWorkload(name); err != nil {
			fmt.Fprintf(stderr, "perf: %v (have %s)\n", err, strings.Join(names, ", "))
			return 2
		}
	}

	hdr := newHeader(*seed, *reps, *seconds, *traceFlag == 1)
	fmt.Fprintf(stderr, "perf: seed %d, reps %d, seconds %g, GOMAXPROCS %d, nproc %d, %s, %s, commit %s\n",
		hdr.Seed, hdr.Reps, hdr.Seconds, hdr.GOMAXPROCS, hdr.NProc, hdr.CPU, hdr.Go, hdr.Commit)
	runData := runFile{Header: hdr}
	for _, name := range selected {
		spec := childSpec{
			Workload: name, Seed: *seed, Reps: *reps, Seconds: *seconds,
			Setups: minSetups, SetupS: minSetupSeconds, Trace: hdr.Trace, TraceS: tracedSeconds,
		}
		rep, err := spawn(spec, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perf: %s: %v\n", name, err)
			return 1
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(stderr, "perf: %s: output check failed: %s\n", name, f)
		}
		for _, m := range rep.Metrics {
			fmt.Fprintf(stdout, "%s %s %s %s\n", name, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
		runData.Workloads = append(runData.Workloads, rep)
	}
	if *out != "" {
		data, err := json.MarshalIndent(runData, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
	}
	sum := summarize(runData.Workloads, hdr.Trace)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// runFile is the JSON a run writes with -out and -compare reads.
type runFile struct {
	Header    header            `json:"header"`
	Workloads []*workloadReport `json:"workloads"`
}

type header struct {
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
}

func newHeader(seed int64, reps int, seconds float64, trace bool) header {
	h := header{
		Seed: seed, Reps: reps, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: "unknown", Go: runtime.Version(), Commit: "unknown",
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(rev))
	}
	return h
}

// spawn runs one workload in a child process of this binary, so that
// the child's peak resident set is that workload's alone.
func spawn(spec childSpec, stderr io.Writer) (*workloadReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "-child", string(js))
	cmd.Stdout = &out
	cmd.Stderr = stderr
	// A child outliving a killed parent would keep loading the machine.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var rep workloadReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("no resource usage for the child process")
	}
	rss := float64(ru.Maxrss) / 1024 // Linux reports KiB
	rep.Metrics = slices.Insert(rep.Metrics, 2, metric{"peak_rss_mb", rss, "MiB"})
	rep.Samples["peak_rss_mb"] = []float64{rss}
	return &rep, nil
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unsummarized prefixes the per-layer metrics of the layers that do
// their work on fleet-ingest and cloudblock-shards2: the live plane,
// telemetry, and the sharded engine's clock and lanes. On the offline
// serial workloads BENCHMARK.json runs they hold at most a few profile
// samples, so the summary line leaves them out; the metric lines keep
// them.
var unsummarized = []string{"fleet.", "nethttp.", "obs.", "simclock.", "storage.shard."}

// summarize folds the reports into the summary line: the end-to-end
// metrics every workload reports, or with trace the per-layer ones.
// With several workloads each metric name is prefixed by "<workload>/".
func summarize(reps []*workloadReport, trace bool) summary {
	s := summary{Correct: true, Metrics: map[string]summaryValue{}}
	for _, r := range reps {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, m := range r.Metrics {
			d, e2e := lookupEndToEnd(m.Name)
			live := slices.ContainsFunc(unsummarized, func(p string) bool { return strings.HasPrefix(m.Name, p) })
			if trace == e2e || e2e && !d.summary || !e2e && live {
				continue
			}
			key := m.Name
			if len(reps) > 1 {
				key = r.Name + "/" + key
			}
			s.Metrics[key] = summaryValue{m.Value, m.Unit}
		}
	}
	return s
}
