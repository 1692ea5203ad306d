// HTTP helpers shared by esmd and the fleet control plane: a
// flight-recorder series and the provenance ledger's live tail as
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

// ServeProvenance writes the ledger's live tail as an HTTP response in
// the ledger CSV format, so a saved payload feeds esmstat explain.
// ?since= and ?until= window it on simulated time as for ServeSeries,
// and the X-Provenance-Dropped header counts the rows the tail has let
// go. A nil ledger answers 404.
func ServeProvenance(w http.ResponseWriter, r *http.Request, p *Provenance) {
	if p == nil {
		http.Error(w, "no provenance ledger attached (run with -provenance)", http.StatusNotFound)
		return
	}
	since, until, err := parseWindow(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b := []byte(provHeader)
	for _, rec := range p.Tail() {
		if rec.T >= since && (until <= 0 || rec.T <= until) {
			b = appendProvRow(b, &rec)
		}
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("X-Provenance-Dropped", strconv.FormatInt(p.Summary().Dropped, 10))
	_, _ = w.Write(b)
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
