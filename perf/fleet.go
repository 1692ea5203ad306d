package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"esm/internal/fleet"
	"esm/internal/obs"
	"esm/internal/trace"
	"esm/internal/workload"
)

// fleetArrays name the arrays of fleet-ingest; each gets its own client
// and connection streaming the same trace.
var fleetArrays = []string{"a", "b"}

// postRecords is how many records one ingest POST carries.
const postRecords = 8192

// fleetRules are BenchmarkTelemetryOverhead's three watchdog rules, so
// the live plane runs with alerting on as well as the flight recorder
// and provenance.
var fleetRules = []string{
	"budget:total_energy_j>1e6:for=5m",
	"burn:rate(total_energy_j)>50",
	"resp:resp_p95_us>2e5",
}

// fleetBench streams an NDJSON trace file into two fleet arrays behind a
// loopback HTTP server, closed loop: each client sends its next POST
// only after the previous reply.
type fleetBench struct {
	cat       *trace.Catalog
	placement []int
	path      string
	counts    traceCounts
	rules     []obs.Rule
}

func setupFleetIngest(seed int64, scale float64, dir string) (bench, error) {
	cfg := workload.DefaultFileServerConfig().Scaled(scale)
	cfg.Seed = seed
	w, err := workload.GenerateFileServer(cfg)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "fileserver.ndjson")
	n, err := writeTrace(path, w.Source(), func(f io.Writer) appender { return trace.NewNDJSONWriter(f) })
	if err != nil {
		return nil, err
	}
	rules, err := obs.ParseRules(fleetRules)
	if err != nil {
		return nil, err
	}
	return &fleetBench{cat: w.Catalog, placement: w.Placement, path: path, counts: n, rules: rules}, nil
}

func (b *fleetBench) reference() (*outputs, error) { return nil, nil }

// rep builds a fresh fleet and server, then times from the first POST
// to the last reply. The span decorators do not apply: the fleet owns
// its policy and decoder.
func (b *fleetBench) rep(bool) (*repResult, error) {
	specs := make([]fleet.ArraySpec, len(fleetArrays))
	for i, name := range fleetArrays {
		specs[i] = fleet.ArraySpec{Name: name, Catalog: b.cat, Placement: b.placement, Alerts: b.rules, Provenance: true}
	}
	f, err := fleet.New(fleet.Options{Specs: specs})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: f.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // always http.ErrServerClosed after Close
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	tr := &http.Transport{MaxConnsPerHost: len(fleetArrays), MaxIdleConnsPerHost: len(fleetArrays)}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	base := "http://" + ln.Addr().String()

	streams := make([]ingestStream, len(fleetArrays))
	var wg sync.WaitGroup
	start := time.Now()
	for i, name := range fleetArrays {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[i].run(client, base+"/arrays/"+name+"/ingest", b.path)
		}()
	}
	wg.Wait()
	r := &repResult{wall: time.Since(start)}

	delayed, err := scrapeCounters(client, base+"/metrics", "esm_delayed_writes_total")
	if err != nil {
		return nil, err
	}
	for i, name := range fleetArrays {
		s := &streams[i]
		if s.err != nil {
			return nil, fmt.Errorf("array %s: %w", name, s.err)
		}
		if s.failure != "" {
			fmt.Fprintf(os.Stderr, "perf: array %s: %d of %d POSTs failed, first: %s\n", name, s.failed, s.posts, s.failure)
		}
		a := f.Array(name)
		st := a.Status()
		series := a.Series()
		last := func(col string) int64 {
			c := series.Column(col)
			if len(c) == 0 {
				return 0
			}
			return int64(c[len(c)-1])
		}
		r.out = append(r.out, outputs{
			Records:        st.Records,
			Determinations: st.Determinations,
			SpinUps:        int64(st.SpinUps),
			PhysicalReads:  last("physical_reads"),
			PhysicalWrites: last("physical_writes"),
			CacheHits:      st.CacheHits,
			MigratedBytes:  st.MigratedBytes,
			EnergyJ:        st.EnergyJ,
		})
		r.records += st.Records
		r.attempted += s.posts
		r.failed += s.failed
		r.postsMS = append(r.postsMS, s.latMS...)
		r.reads += b.counts.reads
		r.writes += b.counts.records - b.counts.reads
		r.delayedWrites += delayed[name]
	}
	return r, nil
}

// ingestStream is one client's closed-loop upload of the trace file.
type ingestStream struct {
	posts, failed int64
	failure       string // first failed POST's reason
	latMS         []float64
	err           error // the client itself failed
}

func (s *ingestStream) run(client *http.Client, url, path string) {
	fh, err := os.Open(path)
	if err != nil {
		s.err = err
		return
	}
	defer fh.Close()
	br := bufio.NewReaderSize(fh, 1<<20)
	var body bytes.Buffer
	for {
		body.Reset()
		for n := 0; n < postRecords; n++ {
			line, err := br.ReadSlice('\n')
			body.Write(line)
			if err == io.EOF {
				break
			}
			if err != nil {
				s.err = err
				return
			}
		}
		_, err := br.Peek(1)
		final := errors.Is(err, io.EOF)
		u := url
		if final {
			u += "?final=1"
		}
		t0 := time.Now()
		err = post(client, u, body.Bytes())
		s.latMS = append(s.latMS, ms(time.Since(t0)))
		s.posts++
		if err != nil {
			s.failed++
			if s.failure == "" {
				s.failure = err.Error()
			}
		}
		if final {
			return
		}
	}
}

func post(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(reply)))
	}
	return nil
}

// scrapeCounters reads one counter family from the Prometheus endpoint,
// keyed by array name.
func scrapeCounters(client *http.Client, url, family string) (map[string]int64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, name := range fleetArrays {
		prefix := obs.WithLabel(family, "array", name) + " "
		for _, line := range strings.Split(string(text), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				n, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", prefix, err)
				}
				out[name] = int64(n)
			}
		}
	}
	return out, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
