// The control plane's HTTP surface:
//
//	GET  /metrics                      shared registry, Prometheus text
//	GET  /status                       every array's liveness snapshot
//	GET  /fleet                        energy/cost/carbon roll-up
//	GET  /alerts                       fleet-wide + per-array alert state
//	GET  /healthz                      readiness: per-array ingest liveness
//	GET  /arrays/                      array names
//	GET  /arrays/<name>/status         one array's snapshot
//	GET  /arrays/<name>/alerts         one array's alert-rule states
//	GET  /arrays/<name>/series         flight series (JSON, ?format=csv,
//	                                   ?since=/?until= windowing)
//	POST /arrays/<name>/ingest         live trace ingest (NDJSON default,
//	                                   text/csv, binary stream codec);
//	                                   ?final=1 finalizes the stream
//	POST /arrays/<name>/config         hot-swap the array's policy from a
//	                                   config.File document
//	     /debug/pprof/                 standard profiles

package fleet

import (
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"strings"

	"esm/internal/config"
	"esm/internal/obs"
)

// Handler returns the control-plane mux.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = f.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, struct {
			Arrays []Status `json:"arrays"`
		}{f.Status()})
	})
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, f.Rollup())
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, f.Alerts())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, f.health())
	})
	mux.HandleFunc("/arrays/", f.serveArray)
	obs.RegisterPprof(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// serveArray routes /arrays/ and /arrays/<name>/<verb>.
func (f *Fleet) serveArray(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/arrays/")
	if rest == "" {
		writeJSON(w, struct {
			Arrays []string `json:"arrays"`
		}{f.Names()})
		return
	}
	name, verb, _ := strings.Cut(rest, "/")
	a := f.Array(name)
	if a == nil {
		http.Error(w, fmt.Sprintf("unknown array %q", name), http.StatusNotFound)
		return
	}
	switch verb {
	case "", "status":
		writeJSON(w, a.Status())
	case "alerts":
		writeJSON(w, struct {
			Array   string            `json:"array"`
			Summary obs.AlertSummary  `json:"summary"`
			Rules   []obs.AlertStatus `json:"rules,omitempty"`
		}{a.Name(), a.AlertSummary(), a.Alerts()})
	case "series":
		obs.ServeSeries(w, r, a.Series())
	case "provenance":
		obs.ServeProvenance(w, r, a.tail)
	case "ingest":
		f.serveIngest(w, r, a)
	case "config":
		f.serveConfig(w, r, a)
	default:
		http.Error(w, fmt.Sprintf("unknown endpoint %q", verb), http.StatusNotFound)
	}
}

// ArrayHealth is one array's line of the /healthz payload: the ingest
// and flight-recorder liveness counters, plus the derived Live flag —
// true once the array has either received records or been finalized.
type ArrayHealth struct {
	Array          string `json:"array"`
	Live           bool   `json:"live"`
	Finished       bool   `json:"finished"`
	IngestRequests int64  `json:"ingest_requests"`
	IngestRecords  int64  `json:"ingest_records"`
	SeriesSamples  int    `json:"series_samples"`
	SeriesLastTNS  int64  `json:"series_last_t_ns"`
}

// Health is the /healthz payload. OK is true once every array is
// constructed and serving — the readiness contract: a 200 with
// "ok": true means ingest can start.
type Health struct {
	OK     bool          `json:"ok"`
	Arrays []ArrayHealth `json:"arrays"`
}

// health assembles the readiness payload from the status snapshots.
func (f *Fleet) health() Health {
	h := Health{OK: true}
	for _, st := range f.Status() {
		h.Arrays = append(h.Arrays, ArrayHealth{
			Array:          st.Array,
			Live:           st.Finished || st.IngestRecords > 0,
			Finished:       st.Finished,
			IngestRequests: st.IngestRequests,
			IngestRecords:  st.IngestRecords,
			SeriesSamples:  st.SeriesSamples,
			SeriesLastTNS:  st.SeriesLastTNS,
		})
	}
	return h
}

// ingestResponse is the POST ingest reply.
type ingestResponse struct {
	Array        string `json:"array"`
	Records      int64  `json:"records"`
	TotalRecords int64  `json:"total_records"`
	TimeNS       int64  `json:"t_ns"`
	Finished     bool   `json:"finished,omitempty"`
}

// serveIngest streams the request body into the array. The feed is
// incremental: records decoded before an error have already driven the
// simulation, and the error reply says how many were applied.
func (f *Fleet) serveIngest(w http.ResponseWriter, r *http.Request, a *Array) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a trace body to ingest", http.StatusMethodNotAllowed)
		return
	}
	ctype := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ctype); err == nil {
		ctype = mt
	}
	var n int64
	var err error
	switch ctype {
	case "", "application/x-ndjson", "application/json":
		n, err = a.IngestNDJSON(r.Body)
	case "text/csv":
		n, err = a.IngestCSV(r.Body)
	case "application/x-esm-stream", "application/octet-stream":
		n, err = a.IngestStream(r.Body)
	default:
		http.Error(w, fmt.Sprintf("unsupported Content-Type %q (want application/x-ndjson, text/csv or application/x-esm-stream)", ctype),
			http.StatusUnsupportedMediaType)
		return
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("ingest failed after %d records: %v", n, err), http.StatusBadRequest)
		return
	}
	if r.URL.Query().Get("final") == "1" {
		if err := a.Finish(); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
	}
	st := a.Status()
	writeJSON(w, ingestResponse{
		Array:        a.Name(),
		Records:      n,
		TotalRecords: st.Records,
		TimeNS:       st.TimeNS,
		Finished:     st.Finished,
	})
}

// serveConfig hot-swaps the array's policy from a posted config.File
// document (the same schema as esmd -config; the storage section is
// ignored, the physical array being fixed at creation).
func (f *Fleet) serveConfig(w http.ResponseWriter, r *http.Request, a *Array) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a config document to swap the policy", http.StatusMethodNotAllowed)
		return
	}
	cfg, err := config.Parse(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := a.SwapPolicy(cfg); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	st := a.Status()
	writeJSON(w, struct {
		Array       string `json:"array"`
		PolicySwaps int64  `json:"policy_swaps"`
		Period      string `json:"period"`
	}{a.Name(), st.PolicySwaps, st.Period})
}
