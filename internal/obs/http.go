// HTTP helpers shared by esmd and the fleet control plane: a
// flight-recorder series and the decision log's live tail as
// responses, and the standard net/http/pprof endpoints under
// /debug/pprof/.

package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// ServeSeries writes one flight-recorder series as an HTTP response:
// JSON by default, CSV with ?format=csv, windowed on simulated time by
// ?since= and ?until= Go durations. A nil series answers 404 — the
// shared vocabulary of the single-daemon /series endpoint and the fleet
// control plane's /arrays/<name>/series.
func ServeSeries(w http.ResponseWriter, r *http.Request, s *Series) {
	if s == nil {
		http.Error(w, "no flight recorder attached (run with -series)", http.StatusNotFound)
		return
	}
	since, until, err := parseWindow(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s = s.Window(since, until)
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		_ = s.WriteCSV(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.WriteJSON(w)
}

// ServeProvenance writes the decision log's live tail as an HTTP
// response: the lines the recorder encoded, byte for byte those of the
// log file, so a saved payload feeds esmstat. ?since= and ?until=
// window it on simulated time as for ServeSeries, and the
// X-Provenance-Dropped header counts the records the tail has let go.
// A nil tail answers 404.
func ServeProvenance(w http.ResponseWriter, r *http.Request, tail *Tail) {
	if tail == nil {
		http.Error(w, `no live decision log attached (run esmd with -events, or set "provenance" on the array in the fleet file)`, http.StatusNotFound)
		return
	}
	since, until, err := parseWindow(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	lines, dropped := tail.window(since, until)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Provenance-Dropped", strconv.FormatInt(dropped, 10))
	_, _ = w.Write(lines)
}

// parseWindow reads the ?since= and ?until= simulated-time bounds of a
// request (zero when absent; until <= 0 means no upper bound).
func parseWindow(r *http.Request) (since, until time.Duration, err error) {
	var bounds [2]time.Duration
	for i, key := range [2]string{"since", "until"} {
		if v := r.URL.Query().Get(key); v != "" {
			if bounds[i], err = time.ParseDuration(v); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", key, err)
			}
		}
	}
	return bounds[0], bounds[1], nil
}

// RegisterPprof mounts the standard net/http/pprof endpoints on mux.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
