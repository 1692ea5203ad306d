// Command esmd is the energy-efficient storage management daemon. In
// its classic single-array form it consumes a logical I/O stream (CSV
// records on stdin, as produced by tracegen -format csv), feeds the
// monitoring system, runs the power management function at each
// monitoring-period end and drives the simulated storage unit —
// printing a status line per placement determination and a final
// energy report.
//
// With -fleet it becomes a multi-array control plane instead: the
// fleet file declares N named arrays (each its own simulator, ESM
// policy instance and telemetry), traces arrive live over streaming
// HTTP ingest (POST /arrays/<name>/ingest — NDJSON, CSV or the binary
// stream codec), policies hot-swap over POST /arrays/<name>/config,
// and /fleet rolls the per-array energy ledgers up into fleet-wide
// joules, electricity cost and carbon. All metrics share one registry,
// namespaced by an array="<name>" label. The daemon then runs until
// interrupted, printing each array's report on shutdown.
//
// With -listen the single-array daemon serves the same control plane
// for its one array, plus the classic top-level aliases: /status (JSON
// snapshot of the current period, hot mask, pattern mix, cache
// occupancy and ingest liveness) and /series (the flight recorder's
// live series; JSON, ?format=csv, ?since=/?until= windowing). /metrics
// (Prometheus text), /fleet and /debug/pprof come with the mux. With
// -events it appends the typed telemetry event stream as JSON lines;
// with -trace it writes a Chrome/Perfetto trace-event JSON file on
// exit; with -series it writes the flight series CSV on exit.
//
// Usage:
//
//	tracegen -workload fileserver -scale 0.2 -format csv \
//	         -out /dev/stdout -catalog fs.items -placement fs.layout |
//	  esmd -catalog fs.items -placement fs.layout \
//	       -listen :9090 -events events.jsonl
//
//	esmd -fleet fleet.json -listen :9090
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"esm/internal/config"
	"esm/internal/fleet"
	"esm/internal/obs"
)

func main() {
	fleetPath := flag.String("fleet", "", "fleet configuration file: run the multi-array control plane")
	catalogPath := flag.String("catalog", "", "catalog path (required without -fleet)")
	placementPath := flag.String("placement", "", "initial-placement path (required without -fleet)")
	name := flag.String("name", "esm", "array name in metrics and /arrays/ URLs (single-array mode)")
	enclosures := flag.Int("enclosures", 0, "enclosure count (0 = infer from placement)")
	quiet := flag.Bool("quiet", false, "suppress per-determination status lines")
	configPath := flag.String("config", "", "optional JSON config for storage and ESM parameters")
	listen := flag.String("listen", "", "serve the control plane (/metrics, /status, /fleet, /arrays/, /debug/pprof) on this address")
	events := flag.String("events", "", "append the telemetry event stream to this JSONL file")
	tracePath := flag.String("trace", "", "write a Perfetto trace-event JSON file of every I/O and management span")
	seriesPath := flag.String("series", "", "write the flight-recorder series here as CSV on exit (also served live on /series)")
	seriesInterval := flag.Duration("series-interval", 30*time.Second, "flight-recorder sampling interval (simulated time)")
	faultSpec := flag.String("faults", "", "fault-injection scenario, e.g. seed=42,spinup=0.1,io=0.001,battery=10m:25m")
	alertSpec := flag.String("alerts", "", "comma-separated watchdog rules for the single array, e.g. budget:total_energy_j>1.5e6:for=30s (fleet mode: declare rules in the fleet file)")
	provenance := flag.Bool("provenance", false, "record the decision-provenance ledger, served live at /arrays/<name>/provenance (fleet mode: set \"provenance\" per array in the fleet file)")
	provPath := flag.String("provenance-out", "", "write the provenance ledger here as CSV on exit (implies -provenance)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("esmd"))
		return
	}

	opts := daemonOpts{
		fleetPath:     *fleetPath,
		catalogPath:   *catalogPath,
		placementPath: *placementPath,
		name:          *name,
		configPath:    *configPath,
		enclosures:    *enclosures,
		quiet:         *quiet,
		listen:        *listen,
		eventsPath:    *events,
		tracePath:     *tracePath,
		seriesPath:    *seriesPath,
		seriesEvery:   *seriesInterval,
		faults:        *faultSpec,
		alerts:        *alertSpec,
		provenance:    *provenance || *provPath != "",
		provPath:      *provPath,
	}
	if opts.fleetPath == "" && (opts.catalogPath == "" || opts.placementPath == "") {
		fmt.Fprintln(os.Stderr, "esmd: -catalog and -placement are required (or -fleet)")
		os.Exit(2)
	}
	if err := run(opts, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "esmd:", err)
		os.Exit(1)
	}
}

type daemonOpts struct {
	fleetPath     string
	catalogPath   string
	placementPath string
	name          string
	configPath    string
	enclosures    int
	quiet         bool
	listen        string
	eventsPath    string
	tracePath     string
	seriesPath    string
	seriesEvery   time.Duration
	faults        string
	alerts        string
	provenance    bool
	provPath      string
}

func run(opts daemonOpts, in io.Reader, out io.Writer) error {
	if opts.fleetPath != "" {
		return runFleet(opts, out)
	}
	return runSingle(opts, in, out)
}

// daemon is the classic single-array mode: one fleet array fed from a
// CSV stream, with the control-plane mux plus top-level aliases.
type daemon struct {
	opts daemonOpts
	out  io.Writer
	fl   *fleet.Fleet
	arr  *fleet.Array
}

// newDaemon builds the single managed array from the flag set.
func newDaemon(opts daemonOpts, out io.Writer) (*daemon, error) {
	if opts.name == "" {
		opts.name = "esm"
	}
	var alerts []string
	if opts.alerts != "" {
		alerts = strings.Split(opts.alerts, ",")
	}
	spec, err := fleet.LoadArraySpec(config.FleetArrayConfig{
		Name:       opts.name,
		Catalog:    opts.catalogPath,
		Placement:  opts.placementPath,
		Config:     opts.configPath,
		Faults:     opts.faults,
		Alerts:     alerts,
		Provenance: opts.provenance,
	})
	if err != nil {
		return nil, err
	}
	spec.Enclosures = opts.enclosures
	spec.SeriesInterval = opts.seriesEvery
	if !opts.quiet {
		spec.StatusOut = out
	}
	if opts.eventsPath != "" {
		f, err := os.Create(opts.eventsPath)
		if err != nil {
			return nil, err
		}
		spec.EventSink = obs.NewJSONLSink(f)
	}
	if opts.tracePath != "" {
		f, err := os.Create(opts.tracePath)
		if err != nil {
			return nil, err
		}
		spec.SpanSink = obs.NewPerfettoSink(f, "esmd")
	}
	fl, err := fleet.New(fleet.Options{Specs: []fleet.ArraySpec{spec}})
	if err != nil {
		return nil, err
	}
	return &daemon{opts: opts, out: out, fl: fl, arr: fl.Array(spec.Name)}, nil
}

// handler serves the fleet control plane with the classic single-array
// aliases layered on top: /status and /series answer for the one array
// directly, as they always did.
func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", d.fl.Handler())
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := d.arr.Status()
		fmt.Fprintf(w, "%s", mustJSON(st))
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		obs.ServeSeries(w, r, d.arr.Series())
	})
	return mux
}

// processStream drains the CSV stream into the array and finalizes it.
func (d *daemon) processStream(in io.Reader) error {
	if _, err := d.arr.IngestCSV(in); err != nil {
		return err
	}
	return d.arr.Finish()
}

func runSingle(opts daemonOpts, in io.Reader, out io.Writer) error {
	d, err := newDaemon(opts, out)
	if err != nil {
		return err
	}
	defer d.fl.Close()

	if opts.listen != "" {
		ln, err := net.Listen("tcp", opts.listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		go http.Serve(ln, d.handler())
		fmt.Fprintf(out, "serving /metrics /status /series /alerts /healthz /fleet /arrays/ /debug/pprof on %v\n", ln.Addr())
	}

	if err := d.processStream(in); err != nil {
		return err
	}
	d.arr.Report(out)
	if states := d.arr.Alerts(); len(states) > 0 {
		sum := d.arr.AlertSummary()
		fmt.Fprintf(out, "alerts: %d firing, %d fired, %d transitions\n", sum.Firing, sum.Fired, sum.Transitions)
		for _, st := range states {
			fmt.Fprintf(out, "  %-40s %-8s value %g, threshold %g, fired %d\n",
				st.Spec, st.State, st.Value, st.Threshold, st.Fired)
		}
	}
	if opts.seriesPath != "" {
		if s := d.arr.Series(); s != nil {
			if err := writeCSV(opts.seriesPath, s); err != nil {
				return err
			}
			fmt.Fprintf(out, "flight series (%d samples) written to %s\n", s.Len(), opts.seriesPath)
		}
	}
	if p := d.arr.ProvenanceSummary(); p != nil {
		fmt.Fprintf(out, "provenance: %d rows (%d offered, stride %d): %d determinations, %d decisions, %d transitions\n",
			p.Records, p.Offered, p.Stride, p.Determinations, p.Decisions, p.Transitions)
		if opts.provPath != "" {
			if err := writeCSV(opts.provPath, d.arr.ProvenanceSeries()); err != nil {
				return err
			}
			fmt.Fprintf(out, "provenance ledger written to %s\n", opts.provPath)
		}
	}
	if err := d.fl.Close(); err != nil {
		return err
	}
	if opts.tracePath != "" {
		fmt.Fprintf(out, "trace written to %s\n", opts.tracePath)
	}
	return nil
}

// writeCSV writes one columnar series to path as CSV.
func writeCSV(path string, s *obs.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFleet boots the multi-array control plane and serves it until
// interrupted; on SIGINT/SIGTERM every array is finalized and reported.
func runFleet(opts daemonOpts, out io.Writer) error {
	if opts.alerts != "" {
		return fmt.Errorf("fleet mode: declare alert rules in the fleet file (top-level \"alerts\" for fleet_* budgets, per-array \"alerts\" otherwise), not -alerts")
	}
	file, err := config.LoadFleet(opts.fleetPath)
	if err != nil {
		return err
	}
	fl, err := fleet.FromConfig(file)
	if err != nil {
		return err
	}
	defer fl.Close()

	listen := opts.listen
	if listen == "" {
		listen = file.Listen
	}
	if listen == "" {
		return fmt.Errorf("fleet mode needs -listen (or \"listen\" in the fleet file)")
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	go http.Serve(ln, fl.Handler())
	names := fl.Names()
	fmt.Fprintf(out, "fleet control plane: %d arrays %v on %v\n", len(names), names, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	if err := fl.FinishAll(); err != nil {
		return err
	}
	for _, name := range names {
		fl.Array(name).Report(out)
	}
	if rep := fl.Alerts(); rep.Summary.Rules > 0 {
		fmt.Fprintf(out, "alerts: %d rules, %d firing, %d fired, %d transitions\n",
			rep.Summary.Rules, rep.Summary.Firing, rep.Summary.Fired, rep.Summary.Transitions)
	}
	return fl.Close()
}

// mustJSON marshals v with the indentation every JSON endpoint uses.
func mustJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return append(b, '\n')
}
