// HTTP helpers shared by esmd and the fleet control plane: a
// flight-recorder series as a response, and the standard
// net/http/pprof endpoints under /debug/pprof/.

package obs

import (
	"net/http"
	"net/http/pprof"
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
	window := func(key string) (time.Duration, bool) {
		v := r.URL.Query().Get(key)
		if v == "" {
			return 0, true
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, key+": "+err.Error(), http.StatusBadRequest)
			return 0, false
		}
		return d, true
	}
	since, ok := window("since")
	if !ok {
		return
	}
	until, ok := window("until")
	if !ok {
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

// RegisterPprof mounts the standard net/http/pprof endpoints on mux.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
