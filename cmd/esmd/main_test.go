package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"esm/internal/config"
	"esm/internal/fleet"
	"esm/internal/obs"
	"esm/internal/trace"
)

// parseRecord decodes one "time_ns,item,offset,size,op" line through
// trace.NewCSVReader, the decoder behind the daemon's stdin ingestion
// (fleet.Array.IngestCSV). A line that holds no record, such as an
// empty one, yields io.EOF.
func parseRecord(text string) (trace.LogicalRecord, error) {
	r := trace.NewCSVReader(strings.NewReader(text))
	if rec, ok := r.Next(); ok {
		return rec, nil
	}
	if err := r.Err(); err != nil {
		return trace.LogicalRecord{}, err
	}
	return trace.LogicalRecord{}, io.EOF
}

func TestParseRecordValid(t *testing.T) {
	rec, err := parseRecord("1500000000,3,4096,8192,W")
	if err != nil {
		t.Fatal(err)
	}
	want := trace.LogicalRecord{
		Time: 1500 * time.Millisecond, Item: 3,
		Offset: 4096, Size: 8192, Op: trace.OpWrite,
	}
	if rec != want {
		t.Fatalf("got %+v, want %+v", rec, want)
	}
	if rec, _ := parseRecord("0,0,0,512,R"); rec.Op != trace.OpRead {
		t.Fatalf("read op parsed as %v", rec.Op)
	}
}

func TestParseRecordMalformed(t *testing.T) {
	cases := []struct {
		name, line string
	}{
		{"too few fields", "1,2,3,R"},
		{"too many fields", "1,2,3,4,R,extra"},
		{"non-numeric time", "abc,2,3,4,R"},
		{"negative time", "-5,2,3,4,R"},
		{"non-numeric item", "1,x,3,4,R"},
		{"non-numeric offset", "1,2,x,4,R"},
		{"non-numeric size", "1,2,3,x,R"},
		{"zero size", "1,2,3,0,R"},
		{"negative size", "1,2,3,-1,R"},
		{"size over int32", fmt.Sprintf("1,2,3,%d,R", int64(1)<<31)},
		{"bad op", "1,2,3,4,Q"},
		{"lowercase op", "1,2,3,4,r"},
		{"empty line", ""},
	}
	for _, c := range cases {
		if _, err := parseRecord(c.line); err == nil {
			t.Errorf("%s: parseRecord(%q) succeeded, want error", c.name, c.line)
		}
	}
}

// TestParseRecordSizeBoundary: MaxInt32 must round-trip exactly while
// MaxInt32+1 must be rejected rather than wrap negative.
func TestParseRecordSizeBoundary(t *testing.T) {
	rec, err := parseRecord(fmt.Sprintf("1,2,3,%d,R", int32(1<<31-1)))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Size != 1<<31-1 {
		t.Fatalf("size = %d", rec.Size)
	}
}

// writeDataset writes a tiny synthetic catalog and placement into dir
// and returns their paths.
func writeDataset(t *testing.T, dir string) (string, string) {
	t.Helper()
	cat := trace.NewCatalog()
	for i := 0; i < 8; i++ {
		cat.Add(fmt.Sprintf("item%d", i), 1<<20)
	}
	var buf bytes.Buffer
	if err := trace.WriteCatalog(&buf, cat); err != nil {
		t.Fatal(err)
	}
	catPath := filepath.Join(dir, "items")
	if err := os.WriteFile(catPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	placement := []int{0, 0, 1, 1, 2, 2, 3, 3}
	if err := trace.WritePlacement(&buf, placement); err != nil {
		t.Fatal(err)
	}
	plPath := filepath.Join(dir, "layout")
	if err := os.WriteFile(plPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return catPath, plPath
}

// testDaemon builds a single-array daemon over a tiny synthetic
// catalog.
func testDaemon(t *testing.T, opts daemonOpts, out io.Writer) *daemon {
	t.Helper()
	opts.catalogPath, opts.placementPath = writeDataset(t, t.TempDir())
	d, err := newDaemon(opts, out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.fl.Close() })
	return d
}

func TestProcessStreamSkipsHeaderAndBlanks(t *testing.T) {
	var out bytes.Buffer
	d := testDaemon(t, daemonOpts{quiet: true}, &out)
	in := strings.Join([]string{
		"time_ns,item,offset,size,op",
		"",
		"1000000,0,0,4096,R",
		"   ",
		"2000000,1,0,4096,W",
	}, "\n")
	if err := d.processStream(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	if got := d.arr.Records(); got != 2 {
		t.Fatalf("processed %d records, want 2", got)
	}
	if !d.arr.Finished() {
		t.Fatal("stream end did not finalize the array")
	}
}

func TestProcessStreamRejectsOutOfOrder(t *testing.T) {
	var out bytes.Buffer
	d := testDaemon(t, daemonOpts{quiet: true}, &out)
	in := "2000000,0,0,4096,R\n1000000,1,0,4096,R\n"
	err := d.processStream(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("want line-2 out-of-order error, got %v", err)
	}
}

func TestProcessStreamRejectsMalformedWithLineNumber(t *testing.T) {
	var out bytes.Buffer
	d := testDaemon(t, daemonOpts{quiet: true}, &out)
	in := "time_ns,item,offset,size,op\n1000000,0,0,4096,R\nnot,a,record\n"
	err := d.processStream(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line-3 error, got %v", err)
	}
}

// TestDaemonServesEndpoints: a daemon with -listen must answer
// /metrics, /status (with liveness counters), /series, /fleet, the
// /arrays/ control plane and /debug/pprof/ while a stream is
// processed.
func TestDaemonServesEndpoints(t *testing.T) {
	var out bytes.Buffer
	d := testDaemon(t, daemonOpts{quiet: true, name: "esm"}, &out)
	srv := http.Server{Handler: d.handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	if err := d.processStream(strings.NewReader("1000000,0,0,4096,R\n")); err != nil {
		t.Fatal(err)
	}

	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `esm_physical_reads_total{array="esm"}`) {
		t.Fatalf("/metrics: code %d body %q", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var snap fleet.Status
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Records != 1 {
		t.Fatalf("/status records = %d, want 1", snap.Records)
	}
	if snap.Period == "" {
		t.Fatal("/status period empty")
	}
	if snap.IngestRequests != 1 || snap.IngestRecords != 1 {
		t.Fatalf("/status ingest liveness %d/%d, want 1/1", snap.IngestRequests, snap.IngestRecords)
	}
	if snap.SeriesSamples == 0 {
		t.Fatal("/status series_samples = 0, liveness not visible")
	}

	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/: code %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/series")
	if err != nil {
		t.Fatal(err)
	}
	var series obs.Series
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if series.Len() == 0 || series.Column("total_energy_j") == nil {
		t.Fatalf("/series payload: %d samples, cols %v", series.Len(), series.Cols)
	}

	// The fleet surface answers for the single array too.
	resp, err = http.Get(base + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var roll fleet.Rollup
	if err := json.NewDecoder(resp.Body).Decode(&roll); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(roll.Arrays) != 1 || roll.Arrays[0].Array != "esm" {
		t.Fatalf("/fleet lines %+v", roll.Arrays)
	}
	if roll.Fleet.MeteredJ != roll.Arrays[0].MeteredJ {
		t.Fatalf("single-array fleet total %v != line %v", roll.Fleet.MeteredJ, roll.Arrays[0].MeteredJ)
	}
	resp, err = http.Get(base + "/arrays/esm/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/arrays/esm/status: code %d", resp.StatusCode)
	}
}

// TestDaemonFlightSeries: the daemon samples the stream on the
// simulated clock and the final sample carries the end-of-stream
// counters.
func TestDaemonFlightSeries(t *testing.T) {
	var out bytes.Buffer
	d := testDaemon(t, daemonOpts{quiet: true, seriesPath: "x", seriesEvery: time.Second}, &out)
	var sb strings.Builder
	// 10 simulated seconds of traffic, one read per second.
	for i := 0; i <= 10; i++ {
		fmt.Fprintf(&sb, "%d,%d,0,4096,R\n", int64(i)*int64(time.Second), i%8)
	}
	if err := d.processStream(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	s := d.arr.Series()
	if s == nil || s.Len() < 10 {
		t.Fatalf("series has %d samples, want >= 10 (1 Hz over 10 s)", s.Len())
	}
	reads := s.Column("physical_reads")
	hits := s.Column("cache_hits")
	if reads == nil || hits == nil {
		t.Fatalf("columns missing: %v", s.Cols)
	}
	if reads[len(reads)-1]+hits[len(hits)-1] == 0 {
		t.Fatal("final sample saw no I/O at all")
	}
	if respCount := s.Column("resp_count"); respCount[len(respCount)-1] != 11 {
		t.Fatalf("final resp_count %v, want 11", respCount[len(respCount)-1])
	}
	// The per-enclosure layout covers the daemon's 4 enclosures.
	if s.Column("enc3_state") == nil {
		t.Fatalf("per-enclosure columns missing: %v", s.Cols)
	}
}

// TestRunFleetConfig: the -fleet path boots from a fleet file, loads
// every array and applies the cost overrides.
func TestRunFleetConfig(t *testing.T) {
	dir := t.TempDir()
	catPath, plPath := writeDataset(t, dir)
	fleetPath := filepath.Join(dir, "fleet.json")
	doc := fmt.Sprintf(`{
		"cost": {"pue": 1.2, "replication_factor": 2},
		"arrays": [
			{"name": "tokyo", "catalog": %q, "placement": %q, "series_interval": "1s"},
			{"name": "osaka", "catalog": %q, "placement": %q}
		]
	}`, catPath, plPath, catPath, plPath)
	if err := os.WriteFile(fleetPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := config.LoadFleet(fleetPath)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.FromConfig(file)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if names := fl.Names(); len(names) != 2 || names[0] != "osaka" || names[1] != "tokyo" {
		t.Fatalf("names %v", names)
	}
	if m := fl.Cost(); m.PUE != 1.2 || m.ReplicationFactor != 2 || m.LifespanYears != 6 {
		t.Fatalf("cost model %+v", m)
	}
}

// TestRunStreamsProvenance: -events streams the decision log to its
// file while the array runs, the file holds every record the summary
// counts, and a file that cannot take the records fails the run with
// its path.
func TestRunStreamsProvenance(t *testing.T) {
	dir := t.TempDir()
	catPath, plPath := writeDataset(t, dir)
	var sb strings.Builder
	for i := 0; i <= 600; i++ {
		fmt.Fprintf(&sb, "%d,%d,0,4096,R\n", int64(i)*int64(time.Second), i%8)
	}
	opts := daemonOpts{catalogPath: catPath, placementPath: plPath, quiet: true, eventsPath: filepath.Join(dir, "events.jsonl")}
	var out bytes.Buffer
	if err := run(opts, strings.NewReader(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	var rows int
	_, line, _ := strings.Cut(out.String(), "\ndecision log: ")
	if _, err := fmt.Sscanf(line, "%d records", &rows); err != nil {
		t.Fatalf("no decision-log summary line: %v\n%s", err, out.String())
	}
	f, err := os.Open(opts.eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if rows == 0 || len(events) != rows {
		t.Fatalf("log file holds %d records, the summary %d", len(events), rows)
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail the writes")
	}
	opts.eventsPath = "/dev/full"
	err = run(opts, strings.NewReader(sb.String()), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "/dev/full") {
		t.Fatalf("a failing log file gave %v, want an error naming it", err)
	}
}

// TestProvenanceScrapePinned pins the bytes of a decision log that
// overflows the live tail: the /arrays/<name>/provenance body,
// unwindowed and windowed, its X-Provenance-Dropped header, and the
// -events file written beside it. The faulted run spins enclosures up
// and down around nearly every record, so the log runs past the
// tail's 8,192 records. Any change to how records reach the file or
// the tail that moves a byte fails here.
func TestProvenanceScrapePinned(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	d := testDaemon(t, daemonOpts{quiet: true, eventsPath: filepath.Join(dir, "events.jsonl"), faults: "seed=11,io=0.3,spinup=0.2"}, &out)
	var sb strings.Builder
	for i := 0; i < 4000; i++ {
		op := "R"
		if i%5 == 0 {
			op = "W"
		}
		fmt.Fprintf(&sb, "%d,%d,%d,4096,%s\n", int64(i)*int64(70*time.Second), (i*i)%8, (i%64)*4096, op)
	}
	if err := d.processStream(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	scrape := func(query string) (dropped string, body []byte) {
		rr := httptest.NewRecorder()
		d.handler().ServeHTTP(rr, httptest.NewRequest("GET", "/arrays/esm/provenance"+query, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("provenance%s: code %d: %s", query, rr.Code, rr.Body)
		}
		return rr.Header().Get("X-Provenance-Dropped"), rr.Body.Bytes()
	}
	dropped, all := scrape("")
	windowDropped, window := scrape("?since=70h&until=70h30m")
	if err := d.fl.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// The tail is the file's last tailEvents lines, and the window
	// a run of them.
	if !bytes.HasSuffix(file, all) || !bytes.Contains(all, window) || len(window) == 0 {
		t.Fatal("the scrapes are not the file's latest lines")
	}
	digest := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	for _, c := range []struct {
		what, got, want string
	}{
		{"X-Provenance-Dropped", dropped, "286"},
		{"windowed X-Provenance-Dropped", windowDropped, "286"},
		{"file lines", fmt.Sprint(bytes.Count(file, []byte("\n"))), "8478"},
		{"scrape lines", fmt.Sprint(bytes.Count(all, []byte("\n"))), "8192"},
		{"windowed scrape lines", fmt.Sprint(bytes.Count(window, []byte("\n"))), "60"},
		{"file digest", digest(file), "88b0bdc414c6d7d3a168b9e3d268ad1794062f7a6ed3b6e69d36a076057be48a"},
		{"scrape digest", digest(all), "38b014c4ec5a9d9c1ab07c876940a0ea53d5a83f103b223eb2889bcfe15a69f4"},
		{"windowed scrape digest", digest(window), "bf3af8ef0bf86a756e96d0aba11c6f8d97e0bd9be9dc52af1dbf3b554a32cfe1"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.what, c.got, c.want)
		}
	}
}

// TestTraceFilePinned pins the bytes of the Perfetto file esmd -trace
// writes for a faulted run: its length and SHA-256. The file holds
// cache hits, disk-on and spin-up-blocked I/Os, preloads, destages and
// determinations, with the latency summary and energy attribution in
// otherData. Any change to how spans are buffered, sorted or encoded
// that moves a byte fails here.
func TestTraceFilePinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	d := testDaemon(t, daemonOpts{quiet: true, tracePath: path, faults: "seed=11,io=0.3,spinup=0.2"}, &out)
	var sb strings.Builder
	for i := 0; i < 4000; i++ {
		op := "R"
		if i%5 == 0 {
			op = "W"
		}
		fmt.Fprintf(&sb, "%d,%d,%d,4096,%s\n", int64(i)*int64(70*time.Second), (i*i)%8, (i%64)*4096, op)
	}
	if err := d.processStream(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if err := d.fl.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePerfetto(bytes.NewReader(file)); err != nil {
		t.Fatal(err)
	}
	if got, want := len(file), 738443; got != want {
		t.Errorf("trace file is %d bytes, want %d", got, want)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(file)), "5bb29b1329a8f41d5422bd201b4bb571ce153bb62c9d3f36b17d13f4c66ae302"; got != want {
		t.Errorf("trace file digest %s, want %s", got, want)
	}
}
