package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryPrometheusRendering(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("esm_spin_ups_total", "Enclosure power-on transitions.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	g := reg.Gauge("esm_monitoring_period_seconds", "Current monitoring-period length.")
	g.Set(624)
	reg.GaugeFunc("esm_cache_occupancy_bytes", "Bytes pinned in the preload partition.", func() float64 { return 1024 }, "partition", "preload")

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
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "first")
	b := reg.Counter("x_total", "second")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	if reg.Gauge("g", "") != reg.Gauge("g", "") {
		t.Fatal("same name must return the same gauge")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits_total", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				reg.Gauge("g", "").Set(float64(j))
			}
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
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
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
// the keys sorted; a view adds its label to every instrument
// registered through it and shares the parent's instruments.
func TestRegistryViews(t *testing.T) {
	reg := NewRegistry()
	arr := reg.With("array", "b")
	arr.Gauge("esm_io_latency_seconds", "", "quantile", "0.5", "cause", "demand").Set(1)
	arr.With("zz", "1").Counter("m_total", "").Inc()
	if reg.With("array", "b").Counter("m_total", "", "zz", "1") != arr.Counter("m_total", "", "zz", "1") {
		t.Error("views of one registry must share an instrument registered under the same labels")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
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
	for _, bad := range [][]string{{"array", "a"}, {"odd"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("labels %q on an array view: no panic", bad)
				}
			}()
			arr.Gauge("g", "", bad...)
		}()
	}
}

// TestWritePrometheusFamilyGrouping: a family whose name prefixes
// another ("esm_io" vs "esm_io_phase") must still render contiguously,
// with HELP/TYPE exactly once per family — raw byte order would split
// it because '_' sorts before '{'.
func TestWritePrometheusFamilyGrouping(t *testing.T) {
	reg := NewRegistry()
	reg.With("array", "b").Gauge("esm_io", "io help").Set(1)
	reg.Gauge("esm_io_phase", "phase help", "phase", "queue").Set(2)
	reg.With("array", "a").Gauge("esm_io", "io help").Set(3)
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
// scrapes of a registry holding labeled families registered in
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
	// register adds instrument i: even indices are counters, odd ones
	// gauges, so both builds agree on each instrument's kind.
	register := func(reg *Registry, i int) {
		n := insts[i]
		if i%2 == 0 {
			reg.Counter(n.family, "help for "+n.family, n.labels...).Add(int64(i))
		} else {
			reg.Gauge(n.family, "help for "+n.family, n.labels...).Set(float64(i))
		}
	}
	reg := NewRegistry()
	for i := range insts {
		register(reg, i)
	}
	reg.With("array", "z").GaugeFunc("esm_fn", "fn", func() float64 { return 7 })
	reg.With("array", "a").GaugeFunc("esm_fn", "fn", func() float64 { return 8 })
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
	// A registry built with the same instruments in reverse order
	// renders the same bytes: exposition depends only on content.
	reg2 := NewRegistry()
	for i := len(insts) - 1; i >= 0; i-- {
		register(reg2, i)
	}
	reg2.With("array", "a").GaugeFunc("esm_fn", "fn", func() float64 { return 8 })
	reg2.With("array", "z").GaugeFunc("esm_fn", "fn", func() float64 { return 7 })
	var other bytes.Buffer
	if err := reg2.WritePrometheus(&other); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), other.Bytes()) {
		t.Fatalf("registration order leaked into exposition:\n%s\nvs\n%s", first.String(), other.String())
	}
}
