package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"esm/internal/config"
	"esm/internal/core"
	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/replay"
	"esm/internal/storage"
	"esm/internal/trace"
)

// postNDJSON streams recs to the array's ingest endpoint in chunks of
// chunk records per request, finalizing with the last one. scrape,
// when non-nil, runs after every chunk but the last.
func postNDJSON(t *testing.T, base, array string, recs []trace.LogicalRecord, chunk int, scrape func()) {
	t.Helper()
	for start := 0; start < len(recs); start += chunk {
		end := start + chunk
		if end > len(recs) {
			end = len(recs)
		}
		var buf bytes.Buffer
		w := trace.NewNDJSONWriter(&buf)
		for _, rec := range recs[start:end] {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		url := base + "/arrays/" + array + "/ingest"
		if end == len(recs) {
			url += "?final=1"
		}
		resp, err := http.Post(url, "application/x-ndjson", &buf)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest [%d:%d]: %s: %s", start, end, resp.Status, body)
		}
		if scrape != nil && end < len(recs) {
			scrape()
		}
	}
}

// oddNanos shifts arrival i by (7919·i+1)·1237 ns, which keeps the
// order and moves the arrivals off the whole-millisecond grid, so a
// power segment split at any arrival or settle point no longer
// converts to seconds exactly.
func oddNanos(recs []trace.LogicalRecord) []trace.LogicalRecord {
	out := make([]trace.LogicalRecord, len(recs))
	for i, rec := range recs {
		rec.Time += time.Duration(7919*i+1) * 1237
		out[i] = rec
	}
	return out
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

// TestLiveIngestMatchesOfflineReplay is the acceptance gate of the
// control plane: arrays fed a trace over live chunked NDJSON ingest
// must produce flight series, decision logs, alert states,
// energy attribution and totals byte-identical to an offline
// replay.Execute of the same trace on the same sampling grid — the
// wire adds nothing and loses nothing, plain, with faults injected,
// with every telemetry surface on, and with /fleet and status scrapes
// settling the meter between ingest chunks. The arrival times carry
// odd nanoseconds, so a settle that moved a joule would show.
func TestLiveIngestMatchesOfflineReplay(t *testing.T) {
	span := 30 * time.Minute
	interval := time.Minute
	_, _, recs := fixture(t, span)
	recs = oddNanos(recs)
	last := recs[len(recs)-1].Time
	rules := []string{"energy:total_energy_j>1:for=2m", "spinups:spin_ups>0"}

	cases := []struct {
		name       string
		faults     string
		alerts     bool
		provenance bool
		tracer     bool
		scrape     bool
	}{
		{name: "plain"},
		{name: "faults", faults: "seed=7,spinup=0.2,io=0.005"},
		{name: "alerts+provenance", alerts: true, provenance: true},
		{name: "tracer", alerts: true, provenance: true, tracer: true},
		{name: "scrapes", alerts: true, provenance: true, scrape: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fc *faults.Config
			if tc.faults != "" {
				var err error
				if fc, err = faults.ParseSpec(tc.faults); err != nil {
					t.Fatal(err)
				}
			}
			var ruleSet []obs.Rule
			if tc.alerts {
				ruleSet = mustRules(t, rules...)
			}

			// Offline reference: a serial replay of the same records on
			// the same flight grid. Fresh catalog so no state leaks
			// between the sides.
			cat, placement, _ := fixture(t, span)
			esm, err := core.NewESM(core.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			run := replay.Run{
				Catalog:   cat,
				Source:    trace.NewSliceSource(recs),
				Placement: placement,
				Storage:   storage.DefaultConfig(2),
				Policy:    esm,
				Duration:  last,
				Faults:    fc,
				Telemetry: obs.Telemetry{
					Flight: obs.NewFlightRecorder(interval),
					Alerts: obs.NewWatchdog(obs.WatchdogOptions{Rules: ruleSet}),
				},
			}
			// The live arrays label their logs with their names and
			// log their alert transitions; the offline log is alpha's.
			var offlineCSV, offlineProv bytes.Buffer
			if tc.provenance {
				rec := obs.New(obs.Options{Log: &offlineProv, Label: "alpha"})
				run.Telemetry.Recorder = rec
				run.Telemetry.Alerts = obs.NewWatchdog(obs.WatchdogOptions{Rules: ruleSet, Recorder: rec})
			}
			if tc.tracer {
				run.Telemetry.Tracer = obs.NewTracer(obs.TracerOptions{Trace: io.Discard})
			}
			res, err := replay.Execute(run)
			if err != nil {
				t.Fatal(err)
			}
			if fc != nil && res.Faults.Total() == 0 {
				t.Fatal("fault scenario injected nothing; the case is not exercising faults")
			}
			if tc.alerts && res.Alerts.Fired == 0 {
				t.Fatal("no alert fired; the case is not exercising the watchdog")
			}
			if tc.tracer && (res.Attribution == nil || res.Latency == nil) {
				t.Fatal("no attribution or latency summary; the case is not exercising the tracer")
			}
			if err := res.Series.WriteCSV(&offlineCSV); err != nil {
				t.Fatal(err)
			}
			if err := run.Telemetry.Recorder.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.provenance && offlineProv.Len() == 0 {
				t.Fatal("the offline replay logged nothing; the case is not exercising the log")
			}

			// Live side: two identically configured arrays behind the
			// HTTP control plane, fed the same records in different
			// chunkings.
			var specs []ArraySpec
			for _, name := range []string{"alpha", "beta"} {
				c, p, _ := fixture(t, span)
				spec := ArraySpec{
					Name: name, Catalog: c, Placement: p, SeriesInterval: interval,
					Faults: fc, Alerts: ruleSet, Provenance: tc.provenance,
				}
				if tc.tracer {
					spec.TraceSink = io.Discard
				}
				specs = append(specs, spec)
			}
			f, err := New(Options{Specs: specs})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			srv := httptest.NewServer(f.Handler())
			defer srv.Close()

			// A traced array refreshes its attribution after every
			// ingest request, and a scrape settles the meter: with one
			// record per request both happen after every arrival.
			chunk := 97
			if tc.tracer || tc.scrape {
				chunk = 1
			}
			var scrape func()
			if tc.scrape {
				scrape = func() {
					get(t, srv.URL+"/fleet")
					get(t, srv.URL+"/arrays/alpha/status")
				}
			}
			postNDJSON(t, srv.URL, "alpha", recs, chunk, scrape)
			postNDJSON(t, srv.URL, "beta", recs, len(recs), nil)

			for _, name := range []string{"alpha", "beta"} {
				liveCSV := get(t, srv.URL+"/arrays/"+name+"/series?format=csv")
				if !bytes.Equal(liveCSV, offlineCSV.Bytes()) {
					t.Errorf("%s: live series differs from offline replay (%d vs %d bytes)",
						name, len(liveCSV), offlineCSV.Len())
				}
				if tc.provenance {
					liveProv := get(t, srv.URL+"/arrays/"+name+"/provenance")
					want := bytes.ReplaceAll(offlineProv.Bytes(), []byte(`"run":"alpha"`), []byte(`"run":"`+name+`"`))
					if !bytes.Equal(liveProv, want) {
						t.Errorf("%s: live provenance differs from offline replay (%d vs %d bytes)",
							name, len(liveProv), len(want))
					}
				}
				if got := f.Array(name).Alerts(); !reflect.DeepEqual(got, res.AlertStates) {
					t.Errorf("%s: alert states %+v, offline %+v", name, got, res.AlertStates)
				}
				var st Status
				if err := json.Unmarshal(get(t, srv.URL+"/arrays/"+name+"/status"), &st); err != nil {
					t.Fatal(err)
				}
				if st.EnergyJ != res.EnergyJ {
					t.Errorf("%s: live energy %v J, offline %v J", name, st.EnergyJ, res.EnergyJ)
				}
				if !reflect.DeepEqual(st.Attribution, res.Attribution) {
					t.Errorf("%s: live attribution differs from offline replay:\n%+v\n%+v", name, st.Attribution, res.Attribution)
				}
				if !reflect.DeepEqual(st.Latency, res.Latency) {
					t.Errorf("%s: live latency summary differs from offline replay", name)
				}
				if st.SpinUps != res.SpinUps || st.MigratedBytes != res.Storage.MigratedBytes ||
					st.CacheHits != res.Storage.CacheHits || st.Determinations != res.Determinations {
					t.Errorf("%s: counters diverge: %+v vs %+v", name, st, res)
				}
				if st.Records != int64(len(recs)) || !st.Finished {
					t.Errorf("%s: records %d finished %v", name, st.Records, st.Finished)
				}
			}

			// The /fleet roll-up over the finalized arrays conserves the
			// summed per-array joules to 1e-9 relative.
			var roll Rollup
			if err := json.Unmarshal(get(t, srv.URL+"/fleet"), &roll); err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, line := range roll.Arrays {
				sum += line.MeteredJ
			}
			if diff := roll.Fleet.MeteredJ - sum; diff > 1e-9*sum || diff < -1e-9*sum {
				t.Fatalf("fleet %v J vs sum %v J", roll.Fleet.MeteredJ, sum)
			}
			if want := 2 * res.EnergyJ; roll.Fleet.MeteredJ != want {
				t.Fatalf("fleet metered %v J, twice the offline run is %v J", roll.Fleet.MeteredJ, want)
			}
		})
	}
}

// TestConcurrentScrapes races every endpoint against two arrays' feeds,
// a policy hot-swap and finalize: array a carries a tracer and an alert
// rule, the fleet a budget rule, so every registry collector renders
// while the state it reads changes. One /metrics client checks that no
// *_total sample ever decreases across its successive scrapes, through
// a last scrape after both arrays finished.
func TestConcurrentScrapes(t *testing.T) {
	var specs []ArraySpec
	var recs []trace.LogicalRecord
	for _, name := range []string{"a", "b"} {
		cat, placement, r := fixture(t, 30*time.Minute)
		recs = r
		spec := ArraySpec{Name: name, Catalog: cat, Placement: placement, SeriesInterval: time.Minute}
		if name == "a" {
			spec.TraceSink = io.Discard
			spec.Alerts = mustRules(t, "energy:total_energy_j>1:for=2m")
		}
		specs = append(specs, spec)
	}
	f, err := New(Options{Specs: specs, Alerts: mustRules(t, "budget:fleet_metered_j>1")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	scrape := func(url string) (string, bool) {
		resp, err := http.Get(url)
		if err != nil {
			t.Error(err)
			return "", false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return "", false
		}
		return string(body), true
	}
	// totals checks one /metrics body against the client's previous
	// one: no sample may appear twice in a body, and no *_total sample
	// may go down.
	last := map[string]float64{}
	totals := func(body string) {
		seen := map[string]bool{}
		for _, line := range strings.Split(body, "\n") {
			name, v, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") {
				continue
			}
			if seen[name] {
				t.Errorf("%s appears twice in one scrape", name)
			}
			seen[name] = true
			if family, _, _ := strings.Cut(name, "{"); !strings.HasSuffix(family, "_total") {
				continue
			}
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Errorf("%s: %v", line, err)
				continue
			}
			if x < last[name] {
				t.Errorf("%s went from %v to %v between scrapes", name, last[name], x)
			}
			last[name] = x
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, path := range []string{"/metrics", "/metrics", "/status", "/fleet", "/arrays/", "/arrays/a/status", "/arrays/a/series", "/arrays/b/series?format=csv"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := scrape(url); !ok {
					return
				}
			}
		}(srv.URL + path)
	}
	// The feeders wait for the checking client every chunk records, so
	// its scrapes interleave with the whole run, not just its start.
	const chunk = 32
	var scraped atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer scraped.Store(math.MaxInt64) // never leave a feeder waiting
		for {
			body, ok := scrape(srv.URL + "/metrics")
			if !ok {
				return
			}
			totals(body)
			scraped.Add(1)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	// b's feeder hot-swaps a's policy at each quarter of the trace,
	// while a's own feeder runs.
	const swaps = 3
	swapAt := map[int]bool{}
	for k := 1; k <= swaps; k++ {
		swapAt[k*len(recs)/(swaps+1)] = true
	}
	period := config.Duration(2 * time.Minute)
	swapCfg := &config.File{Policy: &config.PolicyConfig{Name: "esm", InitialPeriod: &period}}
	var feeders sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		feeders.Add(1)
		go func(a *Array) {
			defer feeders.Done()
			for i, rec := range recs {
				for scraped.Load() < int64(i/chunk) {
					runtime.Gosched()
				}
				if err := a.Feed(rec); err != nil {
					t.Error(err)
					return
				}
				if a.name == "b" && swapAt[i] {
					if err := f.Array("a").SwapPolicy(swapCfg); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if err := a.Finish(); err != nil {
				t.Error(err)
			}
		}(f.Array(name))
	}
	feeders.Wait()
	close(stop)
	wg.Wait()
	final, ok := scrape(srv.URL + "/metrics")
	if !ok {
		return
	}
	totals(final)

	// Post-race sanity: both arrays processed everything, a took every
	// swap, the roll-up still conserves, and the collectors of a's
	// tracer and both watchdogs rendered.
	if got := f.Array("a").Status().PolicySwaps; got != swaps {
		t.Fatalf("array a took %d policy swaps, want %d", got, swaps)
	}
	r := f.Rollup()
	if r.Fleet.Records != int64(2*len(recs)) {
		t.Fatalf("fleet records %d, want %d", r.Fleet.Records, 2*len(recs))
	}
	sum := r.Arrays[0].MeteredJ + r.Arrays[1].MeteredJ
	if diff := r.Fleet.MeteredJ - sum; diff > 1e-9*sum || diff < -1e-9*sum {
		t.Fatalf("fleet %v J vs sum %v J", r.Fleet.MeteredJ, sum)
	}
	for _, want := range []string{
		`esm_io_latency_count{array="a",cause="disk-on"} `,
		`esm_alert_transitions_total{array="a",rule="energy"} `,
		`esm_alert_transitions_total{array="fleet",rule="budget"} `,
		`esm_determinations_total{array="b"} `,
	} {
		if !strings.Contains(final, "\n"+want) {
			t.Errorf("final scrape lacks %s", want)
		}
	}
	if strings.Contains(final, `esm_io_latency_count{array="b"`) {
		t.Error("array b renders tracer metrics without a tracer")
	}
}

// TestHTTPEndpoints covers the control-plane routing: listing,
// unknown arrays and verbs, content-type negotiation, final
// semantics and policy hot-swap over the wire.
func TestHTTPEndpoints(t *testing.T) {
	f, recs := newTestFleet(t, "a")
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	var list struct {
		Arrays []string `json:"arrays"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/arrays/"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Arrays) != 1 || list.Arrays[0] != "a" {
		t.Fatalf("array list %v", list.Arrays)
	}

	status := func(method, url, ctype string, body io.Reader) int {
		req, err := http.NewRequest(method, url, body)
		if err != nil {
			t.Fatal(err)
		}
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(http.MethodGet, srv.URL+"/arrays/nope/status", "", nil); got != http.StatusNotFound {
		t.Errorf("unknown array: %d", got)
	}
	if got := status(http.MethodGet, srv.URL+"/arrays/a/bogus", "", nil); got != http.StatusNotFound {
		t.Errorf("unknown verb: %d", got)
	}
	if got := status(http.MethodGet, srv.URL+"/arrays/a/ingest", "", nil); got != http.StatusMethodNotAllowed {
		t.Errorf("GET ingest: %d", got)
	}
	if got := status(http.MethodPost, srv.URL+"/arrays/a/ingest", "application/x-tar", strings.NewReader("x")); got != http.StatusUnsupportedMediaType {
		t.Errorf("bad content type: %d", got)
	}
	if got := status(http.MethodPost, srv.URL+"/arrays/a/ingest", "application/x-ndjson", strings.NewReader("not json\n")); got != http.StatusBadRequest {
		t.Errorf("garbage body: %d", got)
	}

	// CSV ingest over the wire, with a charset parameter to exercise
	// media-type parsing.
	var csv bytes.Buffer
	cw := trace.NewCSVWriter(&csv)
	for _, rec := range recs[:100] {
		if err := cw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := status(http.MethodPost, srv.URL+"/arrays/a/ingest", "text/csv; charset=utf-8", &csv); got != http.StatusOK {
		t.Errorf("csv ingest: %d", got)
	}

	// Hot-swap over the wire.
	swap := `{"policy": {"name": "esm", "alpha": 1.5}}`
	if got := status(http.MethodPost, srv.URL+"/arrays/a/config", "application/json", strings.NewReader(swap)); got != http.StatusOK {
		t.Errorf("config swap: %d", got)
	}
	if got := status(http.MethodPost, srv.URL+"/arrays/a/config", "application/json", strings.NewReader(`{"policy":{"name":"maid"}}`)); got != http.StatusConflict {
		t.Errorf("foreign policy swap: %d", got)
	}

	// Finalize with an empty final POST, then further ingest conflicts.
	if got := status(http.MethodPost, srv.URL+"/arrays/a/ingest?final=1", "application/x-ndjson", strings.NewReader("")); got != http.StatusOK {
		t.Errorf("final: %d", got)
	}
	var st Status
	if err := json.Unmarshal(get(t, srv.URL+"/arrays/a/status"), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Finished || st.Records != 100 || st.IngestRequests != 3 {
		t.Fatalf("final status %+v", st)
	}
	var bad bytes.Buffer
	fmt.Fprintln(&bad, `{"t_ns":99999999999999,"item":0,"off":0,"size":1,"op":"R"}`)
	if got := status(http.MethodPost, srv.URL+"/arrays/a/ingest", "application/x-ndjson", &bad); got != http.StatusBadRequest {
		t.Errorf("ingest after final: %d", got)
	}
}

// TestIngestRejectsOffsetOutsidePageRange: an NDJSON record at a
// negative offset, which the decoder accepts, gets a clean 400 naming
// the item and offset from the storage page-range check, and the array
// keeps taking valid records afterwards.
func TestIngestRejectsOffsetOutsidePageRange(t *testing.T) {
	f, recs := newTestFleet(t, "a")
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	post := func(recs ...trace.LogicalRecord) (int, string) {
		var buf bytes.Buffer
		w := trace.NewNDJSONWriter(&buf)
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		resp, err := http.Post(srv.URL+"/arrays/a/ingest", "application/x-ndjson", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := post(recs[:10]...); code != http.StatusOK {
		t.Fatalf("valid prefix: %d %s", code, body)
	}
	bad := recs[10]
	bad.Offset = -65536
	want := fmt.Sprintf("storage: I/O to item %d at offset -65536 outside the cache page range", bad.Item)
	if code, body := post(bad); code != http.StatusBadRequest || !strings.Contains(body, want) {
		t.Fatalf("got %d: %s, want 400 naming %q", code, body, want)
	}
	if code, body := post(recs[11:20]...); code != http.StatusOK {
		t.Fatalf("valid records after the rejected one: %d %s", code, body)
	}
}

// TestIngestErrorsNameTheirRecord: a record the feed rejects — here one
// of an item outside the catalog — fails the request with a clean 400
// that names its input line in both text formats (the CSV header is
// line 1) and its index in a stream body, and the array keeps taking
// valid records afterwards. A stream body cut inside a record fails
// too, instead of ending as if it were complete.
func TestIngestErrorsNameTheirRecord(t *testing.T) {
	f, recs := newTestFleet(t, "a")
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	post := func(ctype string, body []byte) (int, string) {
		resp, err := http.Post(srv.URL+"/arrays/a/ingest", ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	encode := func(open func(io.Writer) *trace.Writer, recs ...trace.LogicalRecord) []byte {
		var buf bytes.Buffer
		w := open(&buf)
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		return buf.Bytes()
	}
	next := 0
	for _, c := range []struct {
		ctype string
		open  func(io.Writer) *trace.Writer
		where string
	}{
		{"application/x-ndjson", trace.NewNDJSONWriter, "line 3"},
		{"text/csv", trace.NewCSVWriter, "line 4"},
		{"application/x-esm-stream", trace.NewStreamWriter, "record 2"},
	} {
		good := recs[next : next+2]
		bad := recs[next+2]
		bad.Item = 99
		next += 3
		code, body := post(c.ctype, encode(c.open, good[0], good[1], bad))
		if code != http.StatusBadRequest || !strings.Contains(body, c.where+": ") || !strings.Contains(body, "item 99 is outside the catalog") {
			t.Fatalf("%s: got %d: %s, want 400 naming %s and item 99", c.ctype, code, body, c.where)
		}
		if code, body := post(c.ctype, encode(c.open, recs[next])); code != http.StatusOK {
			t.Fatalf("%s: valid record after the rejected one: %d %s", c.ctype, code, body)
		}
		next++
	}

	whole := encode(trace.NewStreamWriter, recs[next], recs[next+1])
	if code, body := post("application/x-esm-stream", whole[:len(whole)-1]); code != http.StatusBadRequest || !strings.Contains(body, "record 1 op") {
		t.Fatalf("stream cut before its last op byte: got %d: %s, want 400 naming record 1's op", code, body)
	}
}

// TestEmptyIngestBodyIsZeroRecords: an empty body is zero records under
// every content type, so a bodiless ?final=1 POST finalizes whichever
// format the client streams in.
func TestEmptyIngestBodyIsZeroRecords(t *testing.T) {
	f, _ := newTestFleet(t, "a")
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	for _, c := range []struct{ ctype, query string }{
		{"application/x-ndjson", ""},
		{"text/csv", ""},
		{"application/x-esm-stream", ""},
		{"application/x-esm-stream", "?final=1"},
	} {
		url := srv.URL + "/arrays/a/ingest" + c.query
		resp, err := http.Post(url, c.ctype, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("empty %s POST to %s: %d %s", c.ctype, url, resp.StatusCode, msg)
		}
	}
	if st := f.Array("a").Status(); !st.Finished || st.Records != 0 || st.IngestRequests != 4 {
		t.Fatalf("status after four empty POSTs, the last final: %+v", st)
	}
}
