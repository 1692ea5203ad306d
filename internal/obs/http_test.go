package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// helperServer mounts obs's HTTP pieces the way the fleet control plane
// composes them: the registry's Prometheus exposition on /metrics, a
// flight-recorder series on /series and pprof under /debug/pprof/.
func helperServer(t *testing.T, reg *Registry, series *Series) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		ServeSeries(w, r, series)
	})
	RegisterPprof(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), resp.Header.Get("Content-Type")
}

func TestHandlerMetricsStatusPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Collect(func(emit Emit) { emit("esm_spin_ups_total", "spin-ups", KindCounter, 7) })
	fr := NewFlightRecorder(time.Second)
	for i := 0; i <= 10; i++ {
		Telemetry{Flight: fr}.Sample(FlightSample{T: time.Duration(i) * time.Second, EnclosureEnergyJ: float64(i) * 10}, false)
	}
	srv := helperServer(t, reg, fr.Series())

	code, body, ctype := get(t, srv, "/metrics")
	if code != 200 || !strings.Contains(body, "esm_spin_ups_total 7") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type %q", ctype)
	}

	code, body, _ = get(t, srv, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code %d", code)
	}

	code, body, ctype = get(t, srv, "/series")
	if code != 200 || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/series: code %d content type %q", code, ctype)
	}
	var s Series
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("/series not JSON: %v\n%s", err, body)
	}
	if s.Len() != 11 || s.Column("enclosure_energy_j")[10] != 100 {
		t.Fatalf("/series payload wrong: %d samples", s.Len())
	}

	code, body, ctype = get(t, srv, "/series?since=3s&until=7s&format=csv")
	if code != 200 || !strings.HasPrefix(ctype, "text/csv") {
		t.Fatalf("/series csv: code %d content type %q", code, ctype)
	}
	if lines := strings.Count(strings.TrimSpace(body), "\n"); lines != 5 { // header + 5 rows
		t.Fatalf("windowed csv has %d newlines:\n%s", lines, body)
	}

	if code, body, _ = get(t, srv, "/series?since=bogus"); code != 400 {
		t.Fatalf("bad window accepted: code %d body %q", code, body)
	}
}

// TestHandlerNilStatusAndRegistry: an empty registry serves empty
// metrics and a missing flight recorder answers 404 on /series.
func TestHandlerNilStatusAndRegistry(t *testing.T) {
	srv := helperServer(t, NewRegistry(), nil)
	if code, body, _ := get(t, srv, "/metrics"); code != 200 || body != "" {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if code, _, _ := get(t, srv, "/series"); code != 404 {
		t.Fatalf("/series without a recorder: code %d, want 404", code)
	}
}

// TestServeProvenanceTail serves a log that overflowed its tail: the
// payload is the windowed tail in the log's JSONL format, the dropped
// records are counted in a header, a bad window is a 400 and a missing
// tail a 404.
func TestServeProvenanceTail(t *testing.T) {
	tail := new(Tail)
	rec := New(Options{Tail: tail})
	const rows = tailEvents + 100
	for i := 0; i < rows; i++ {
		rec.Log(time.Duration(i)*time.Second, powerRec(0, "spinup", CauseDemand))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/provenance", func(w http.ResponseWriter, r *http.Request) { ServeProvenance(w, r, tail) })
	mux.HandleFunc("/none", func(w http.ResponseWriter, r *http.Request) { ServeProvenance(w, r, nil) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	resp, err := srv.Client().Get(srv.URL + "/provenance?since=8200s&until=8209s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Provenance-Dropped"); got != "100" {
		t.Fatalf("X-Provenance-Dropped = %q, want 100", got)
	}
	events, err := ReadEvents(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 || events[0].T != int64(8200*time.Second) || events[9].T != int64(8209*time.Second) {
		t.Fatalf("windowed tail holds %d records", len(events))
	}

	if code, body, _ := get(t, srv, "/provenance?until=soon"); code != 400 {
		t.Fatalf("bad window accepted: code %d body %q", code, body)
	}
	if code, _, _ := get(t, srv, "/none"); code != 404 {
		t.Fatalf("/provenance without a tail: code %d, want 404", code)
	}
}
