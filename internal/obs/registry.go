// The counter/gauge registry: atomic instruments with no external
// dependencies, rendered in the Prometheus text exposition format.

package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// desc names one instrument: its family, which groups the HELP and
// TYPE lines, and its exposition name, the family with its label set.
type desc struct{ family, name, help string }

// Counter is a monotonically increasing metric.
type Counter struct {
	desc
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (which must be non-negative; negative deltas are
// ignored to keep the counter monotonic).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The value is stored as
// float64 bits so Set/Value are single atomic operations.
type Gauge struct {
	desc
	v atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// gaugeFunc is a gauge evaluated at render time.
type gaugeFunc struct {
	desc
	fn func() float64
}

// Registry holds instruments, each registered as a family plus
// key/value label pairs. The registry renders the exposition name
// (family{k="v",...}, keys sorted), so it is the one place that knows
// the label format. Registration is idempotent by that name; rendering
// is sorted by family, then name, so output is deterministic.
//
// A Registry value is a view: With returns one that shares the
// instruments and adds its label to every instrument registered
// through it. Rendering any view renders every instrument.
type Registry struct {
	*instruments
	labels []string // key/value pairs this view adds
}

// instruments is the state every view of one registry shares.
type instruments struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]*gaugeFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{instruments: &instruments{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]*gaugeFunc),
	}}
}

// With returns a view of r that shares its instruments and adds the
// label key="value" to every instrument registered through it. The
// fleet control plane gives each array such a view.
func (r *Registry) With(key, value string) *Registry {
	return &Registry{instruments: r.instruments, labels: slices.Concat(r.labels, []string{key, value})}
}

// Counter returns the counter registered under family and labels (a
// key, value, ... list, added to the view's), creating it on first
// use. Help is kept from the first registration.
func (r *Registry) Counter(family, help string, labels ...string) *Counter {
	d := r.desc(family, help, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[d.name]; ok {
		return c
	}
	c := &Counter{desc: d}
	r.counters[d.name] = c
	return c
}

// Gauge returns the gauge registered under family and labels, creating
// it on first use.
func (r *Registry) Gauge(family, help string, labels ...string) *Gauge {
	d := r.desc(family, help, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[d.name]; ok {
		return g
	}
	g := &Gauge{desc: d}
	r.gauges[d.name] = g
	return g
}

// GaugeFunc registers a gauge under family and labels whose value is
// computed by fn at render time. fn must be safe to call from the
// scrape goroutine; callers whose state is mutated elsewhere lock
// inside fn.
func (r *Registry) GaugeFunc(family, help string, fn func() float64, labels ...string) {
	d := r.desc(family, help, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[d.name] = &gaugeFunc{desc: d, fn: fn}
}

// desc names an instrument registered through r.
func (r *Registry) desc(family, help string, labels []string) desc {
	return desc{family: family, name: labelled(family, slices.Concat(r.labels, labels)), help: help}
}

// labelled renders family with the key/value pairs kv, sorted by key,
// in the exposition format. An odd list or a key given twice is a
// programming error and panics.
func labelled(family string, kv []string) string {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: %s: odd label list %q", family, kv))
	}
	if len(kv) == 0 {
		return family
	}
	pairs := make([][2]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, [2]string{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	var b strings.Builder
	b.WriteString(family)
	for i, p := range pairs {
		if i > 0 && p[0] == pairs[i-1][0] {
			panic(fmt.Sprintf("obs: %s: label %q given twice", family, p[0]))
		}
		if i == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(p[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WithLabel renders family with the one label key="value", the name a
// scraper looks for in an exposition of array-labelled instruments.
func WithLabel(family, key, value string) string {
	return labelled(family, []string{key, value})
}

// WritePrometheus renders every instrument of the registry, whichever
// view it was registered through, in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	type row struct {
		desc
		typ      string
		value    float64
		integer  bool
		intValue int64
	}
	rows := make([]row, 0, len(r.counters)+len(r.gauges)+len(r.funcs))
	for _, c := range r.counters {
		rows = append(rows, row{desc: c.desc, typ: "counter", integer: true, intValue: c.Value()})
	}
	for _, g := range r.gauges {
		rows = append(rows, row{desc: g.desc, typ: "gauge", value: g.Value()})
	}
	funcs := make([]*gaugeFunc, 0, len(r.funcs))
	for _, f := range r.funcs {
		funcs = append(funcs, f)
	}
	r.mu.Unlock()
	// Evaluate callback gauges outside the registry lock: a callback
	// that touches the registry again must not deadlock.
	for _, f := range funcs {
		rows = append(rows, row{desc: f.desc, typ: "gauge", value: f.fn()})
	}

	// Sort by family first, then by the full labeled name. Sorting on
	// the raw name alone would split a family whose name prefixes
	// another ("esm_io" vs "esm_io_phase": '_' < '{'), re-emitting
	// HELP/TYPE mid-scrape — invalid exposition and nondeterministic
	// grouping. With the family as the primary key every labeled
	// variant stays contiguous and consecutive scrapes of the same
	// instruments render byte-identically.
	sort.SliceStable(rows, func(i, j int) bool {
		if fi, fj := rows[i].family, rows[j].family; fi != fj {
			return fi < fj
		}
		return rows[i].name < rows[j].name
	})
	// Labeled variants of one family sort adjacently; HELP/TYPE are
	// emitted once per family, as the exposition format requires.
	lastFamily := ""
	for _, row := range rows {
		if row.family != lastFamily {
			lastFamily = row.family
			if row.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", row.family, row.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", row.family, row.typ); err != nil {
				return err
			}
		}
		var err error
		if row.integer {
			_, err = fmt.Fprintf(w, "%s %d\n", row.name, row.intValue)
		} else {
			_, err = fmt.Fprintf(w, "%s %v\n", row.name, row.value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
