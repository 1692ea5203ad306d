package obs

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// gauge registers a collector emitting one constant gauge through reg.
func gauge(reg *Registry, family, help string, v float64, labels ...string) {
	reg.Collect(func(emit Emit) { emit(family, help, KindGauge, v, labels...) })
}

func TestRegistryPrometheusRendering(t *testing.T) {
	reg := NewRegistry()
	reg.Collect(func(emit Emit) {
		emit("esm_spin_ups_total", "Enclosure power-on transitions.", KindCounter, 3)
		emit("esm_monitoring_period_seconds", "Current monitoring-period length.", KindGauge, 624)
	})
	gauge(reg, "esm_cache_occupancy_bytes", "Bytes pinned in the preload partition.", 1024, "partition", "preload")

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP esm_spin_ups_total Enclosure power-on transitions.",
		"# TYPE esm_spin_ups_total counter",
		"esm_spin_ups_total 3",
		"# TYPE esm_monitoring_period_seconds gauge",
		"esm_monitoring_period_seconds 624",
		"# TYPE esm_cache_occupancy_bytes gauge",
		"esm_cache_occupancy_bytes{partition=\"preload\"} 1024",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Sorted by name: the cache gauge precedes the period gauge.
	if strings.Index(out, "esm_cache_occupancy_bytes{") > strings.Index(out, "esm_monitoring_period_seconds ") {
		t.Error("output not sorted by metric name")
	}
	// A counter renders as an integer, a gauge in Go's shortest float
	// form.
	reg = NewRegistry()
	reg.Collect(func(emit Emit) {
		emit("big_total", "", KindCounter, 12345678)
		emit("big", "", KindGauge, 12345678)
	})
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE big gauge\nbig 1.2345678e+07\n# TYPE big_total counter\nbig_total 12345678\n"; buf.String() != want {
		t.Errorf("rendered\n%s\nwant\n%s", buf.String(), want)
	}
}

// TestRegistryConcurrentUse: collectors read state their owner mutates
// under its own lock, while views register and scrapes render.
func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var mu sync.Mutex
	var hits int64
	reg.Collect(func(emit Emit) {
		mu.Lock()
		defer mu.Unlock()
		emit("hits_total", "", KindCounter, float64(hits))
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				mu.Lock()
				hits++
				mu.Unlock()
			}
			gauge(reg.With("worker", strconv.Itoa(i)), "g", "", 1)
		}()
	}
	var renderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				renderErr = err
				return
			}
		}
	}()
	wg.Wait()
	if renderErr != nil {
		t.Fatal(renderErr)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\nhits_total 8000\n") || strings.Count(buf.String(), "\ng{") != 8 {
		t.Fatalf("after the writers:\n%s", buf.String())
	}
}

func TestWithLabel(t *testing.T) {
	cases := []struct {
		family, key, value, want string
	}{
		{"esm_spin_ups_total", "array", "a", `esm_spin_ups_total{array="a"}`},
		// Values are escaped.
		{"m", "array", `a"b\c`, `m{array="a\"b\\c"}`},
	}
	for _, c := range cases {
		if got := WithLabel(c.family, c.key, c.value); got != c.want {
			t.Errorf("WithLabel(%q, %q, %q) = %q, want %q", c.family, c.key, c.value, got, c.want)
		}
	}
}

// TestRegistryViews: the registry renders family plus label pairs with
// the keys sorted; a view adds its label to every sample of a
// collector registered through it, and any view renders them all.
func TestRegistryViews(t *testing.T) {
	reg := NewRegistry()
	arr := reg.With("array", "b")
	gauge(arr, "esm_io_latency_seconds", "", 1, "quantile", "0.5", "cause", "demand")
	arr.With("zz", "1").Collect(func(emit Emit) { emit("m_total", "", KindCounter, 1) })
	var buf bytes.Buffer
	if err := arr.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`esm_io_latency_seconds{array="b",cause="demand",quantile="0.5"} 1`,
		`m_total{array="b",zz="1"} 1`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("exposition lacks %s:\n%s", want, buf.String())
		}
	}
	// A label the view already sets, or an odd label list, is a
	// programming error that panics when the collector is registered.
	for _, bad := range [][]string{{"array", "a"}, {"odd"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("labels %q on an array view: no panic", bad)
				}
			}()
			gauge(NewRegistry().With("array", "b"), "g", "", 1, bad...)
		}()
	}
}

// TestRegistryRejectsInvalidExposition: a sample of a Kind other than
// KindCounter or KindGauge, a family emitted as both and a name emitted
// twice panic, whether one collector emits them (caught at
// registration) or two collectors together do (caught on the scrape),
// since each would render a wrong TYPE line or a series twice.
func TestRegistryRejectsInvalidExposition(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	panics("unknown Kind", func() {
		NewRegistry().Collect(func(emit Emit) { emit("m", "", "Counter", 1) })
	})
	panics("two Kinds", func() {
		NewRegistry().Collect(func(emit Emit) {
			emit("m", "", KindGauge, 1, "a", "1")
			emit("m", "", KindCounter, 1, "a", "2")
		})
	})
	panics("one collector, one name twice", func() {
		NewRegistry().Collect(func(emit Emit) {
			emit("m", "", KindGauge, 1, "a", "1")
			emit("m", "", KindGauge, 2, "a", "1")
		})
	})
	reg := NewRegistry()
	gauge(reg.With("array", "fleet"), "esm_alerts", "", 1, "rule", "r")
	gauge(reg.With("array", "fleet"), "esm_alerts", "", 0, "rule", "r")
	panics("two collectors, one name", func() { _ = reg.WritePrometheus(io.Discard) })
	// The same family under distinct labels is one valid family.
	reg = NewRegistry()
	gauge(reg.With("array", "a"), "esm_alerts", "", 1, "rule", "r")
	gauge(reg.With("array", "b"), "esm_alerts", "", 0, "rule", "r")
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestWritePrometheusFamilyGrouping: a family whose name prefixes
// another ("esm_io" vs "esm_io_phase") must still render contiguously,
// with HELP/TYPE exactly once per family — raw byte order would split
// it because '_' sorts before '{'.
func TestWritePrometheusFamilyGrouping(t *testing.T) {
	reg := NewRegistry()
	gauge(reg.With("array", "b"), "esm_io", "io help", 1)
	gauge(reg, "esm_io_phase", "phase help", 2, "phase", "queue")
	gauge(reg.With("array", "a"), "esm_io", "io help", 3)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "# TYPE esm_io gauge"); n != 1 {
		t.Errorf("TYPE esm_io emitted %d times, want 1:\n%s", n, out)
	}
	if n := strings.Count(out, "# TYPE esm_io_phase gauge"); n != 1 {
		t.Errorf("TYPE esm_io_phase emitted %d times, want 1:\n%s", n, out)
	}
	// Both esm_io variants precede the esm_io_phase family.
	if strings.Index(out, `esm_io{array="b"}`) > strings.Index(out, "esm_io_phase{") {
		t.Errorf("family esm_io split across esm_io_phase:\n%s", out)
	}
	// Label sets are sorted within the family.
	if strings.Index(out, `esm_io{array="a"}`) > strings.Index(out, `esm_io{array="b"}`) {
		t.Errorf("labeled variants not sorted:\n%s", out)
	}
}

// TestWritePrometheusDeterministic pins byte-identical consecutive
// scrapes of a registry holding labeled families collected in
// scrambled order — the /metrics contract for diffing and scraping.
func TestWritePrometheusDeterministic(t *testing.T) {
	type inst struct {
		family string
		labels []string
	}
	insts := []inst{
		{"esm_x_total", []string{"array", "b"}}, {"esm_x_total", []string{"array", "a"}},
		{"esm_y", []string{"array", "b", "cause", "demand"}}, {"esm_y", []string{"cause", "flush", "array", "a"}},
		{"esm_x_totals", nil}, {"esm_yy", nil},
	}
	// register adds a collector for sample i: a *_total family is a
	// counter, any other a gauge, so every family has one Kind.
	register := func(reg *Registry, i int) {
		n := insts[i]
		typ := KindGauge
		if strings.HasSuffix(n.family, "_total") {
			typ = KindCounter
		}
		reg.Collect(func(emit Emit) { emit(n.family, "help for "+n.family, typ, float64(i), n.labels...) })
	}
	reg := NewRegistry()
	for i := range insts {
		register(reg, i)
	}
	gauge(reg.With("array", "z"), "esm_fn", "fn", 7)
	gauge(reg.With("array", "a"), "esm_fn", "fn", 8)
	var first bytes.Buffer
	if err := reg.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var again bytes.Buffer
		if err := reg.WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("scrape %d differs:\n%s\nvs\n%s", i+2, first.String(), again.String())
		}
	}
	// A registry built with the same collectors in reverse order
	// renders the same bytes: exposition depends only on content.
	reg2 := NewRegistry()
	for i := len(insts) - 1; i >= 0; i-- {
		register(reg2, i)
	}
	gauge(reg2.With("array", "a"), "esm_fn", "fn", 8)
	gauge(reg2.With("array", "z"), "esm_fn", "fn", 7)
	var other bytes.Buffer
	if err := reg2.WritePrometheus(&other); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), other.Bytes()) {
		t.Fatalf("registration order leaked into exposition:\n%s\nvs\n%s", first.String(), other.String())
	}
}
