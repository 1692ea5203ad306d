package fleet

import (
	"bytes"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"esm/internal/faults"
	"esm/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the fleet exposition golden under testdata/golden")

// TestGoldenFleetExposition pins the /metrics text of a two-array fleet
// byte for byte: every surface that registers instruments under an
// array label (recorder, tracer, per-array watchdog with a rate() rule),
// the fleet watchdog and the build-info gauge. The build-info values
// depend on the toolchain, so they are replaced by placeholders before
// the comparison; the label order around them is still pinned.
func TestGoldenFleetExposition(t *testing.T) {
	cat, placement, recs := fixture(t, 30*time.Minute)
	fc, err := faults.ParseSpec("seed=7,spinup=0.3,io=0.01")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Options{
		Specs: []ArraySpec{
			{
				Name: "tokyo", Catalog: cat, Placement: placement,
				SeriesInterval: time.Minute,
				TraceSink:      io.Discard,
				Faults:         fc,
				Alerts:         mustRules(t, "energy:total_energy_j>1:for=2m", "spins:rate(spin_ups)>0.001"),
			},
			{
				Name: "osaka", Catalog: cat, Placement: placement,
				SeriesInterval: time.Minute,
				Provenance:     true,
			},
		},
		Alerts: mustRules(t, "budget:fleet_metered_j>1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	feedAll(t, f.Array("tokyo"), recs)
	feedAll(t, f.Array("osaka"), recs[:len(recs)/2])
	f.Rollup()
	if err := f.FinishAll(); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	f.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	v, gv := obs.BuildVersion()
	got := []byte(strings.NewReplacer(
		`version="`+v+`"`, `version="VERSION"`,
		`go="`+gv+`"`, `go="GOVERSION"`,
	).Replace(rr.Body.String()))

	path := filepath.Join("testdata", "golden", "fleet.metrics.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Errorf("%s: exposition differs from the golden file at byte %d", path, n)
	}
}
