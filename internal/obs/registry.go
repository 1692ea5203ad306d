// The metrics registry: collectors that read their samples at scrape
// time from state their owners already keep, rendered in the
// Prometheus text exposition format with no external dependencies.

package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Emit adds one sample to a scrape: its family, the family's HELP text
// and Kind, the value, and key/value label pairs added to those of the
// view the collector was registered through.
type Emit func(family, help string, kind Kind, v float64, labels ...string)

// Kind is the exposition TYPE of a sample's family: KindCounter, whose
// value renders as an integer, or KindGauge.
type Kind string

const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
)

// Registry holds collectors and keeps no values: each collector emits
// its samples when the registry is rendered, reading them from state
// its surface already keeps, under that surface's own lock, once per
// scrape. The registry renders the exposition name (family{k="v",...},
// keys sorted), so it is the one place that knows the label format;
// rendering is sorted by family, then name, so output is deterministic.
//
// A Registry value is a view: With returns one that shares the
// collectors and adds its label to every sample of a collector
// registered through it. Rendering any view renders every collector.
type Registry struct {
	*collectors
	labels []string // key/value pairs this view adds
}

// collectors is the state every view of one registry shares.
type collectors struct {
	mu  sync.Mutex
	all []collector
}

// collector is one registered collect function and the labels of the
// view it was registered through.
type collector struct {
	labels  []string
	collect func(Emit)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{collectors: new(collectors)} }

// With returns a view of r that shares its collectors and adds the
// label key="value" to every sample of a collector registered through
// it. The fleet control plane gives each array such a view.
func (r *Registry) With(key, value string) *Registry {
	return &Registry{collectors: r.collectors, labels: slices.Concat(r.labels, []string{key, value})}
}

// Collect registers collect, which the registry calls on every scrape
// to emit the samples of one surface. It runs on the scrape goroutine,
// so it reads its surface's state under that surface's lock. Collect
// also calls it once itself, so a sample of another Kind, a bad label
// list or a name emitted twice panics at registration, not on every
// scrape.
func (r *Registry) Collect(collect func(emit Emit)) {
	c := collector{labels: r.labels, collect: collect}
	gather([]collector{c})
	r.mu.Lock()
	defer r.mu.Unlock()
	r.all = append(r.all, c)
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

// WritePrometheus renders every collector of the registry, whichever
// view it was registered through, in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Call the collectors outside the registry lock, so one that
	// touches the registry again cannot deadlock; Collect only
	// appends, so the slice read under the lock stays valid.
	r.mu.Lock()
	all := r.all
	r.mu.Unlock()
	rows := gather(all)
	// Labeled variants of one family sort adjacently; HELP/TYPE are
	// emitted once per family, as the exposition format requires.
	for i, row := range rows {
		if i == 0 || row.family != rows[i-1].family {
			if row.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", row.family, row.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", row.family, row.kind); err != nil {
				return err
			}
		}
		var err error
		if row.kind == KindCounter {
			_, err = fmt.Fprintf(w, "%s %d\n", row.name, int64(row.v))
		} else {
			_, err = fmt.Fprintf(w, "%s %v\n", row.name, row.v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// row is one sample of a scrape with its rendered name.
type row struct {
	family, name, help string
	kind               Kind
	v                  float64
}

// gather calls the collectors and returns their samples sorted for
// rendering. A sample of another Kind, a family emitted as both Kinds
// or a name emitted twice would render invalid exposition; like a bad
// label list it is a programming error and panics.
func gather(all []collector) []row {
	var rows []row
	for _, c := range all {
		c.collect(func(family, help string, kind Kind, v float64, labels ...string) {
			if kind != KindGauge && kind != KindCounter {
				panic(fmt.Sprintf("obs: %s: kind %q", family, kind))
			}
			rows = append(rows, row{family, labelled(family, slices.Concat(c.labels, labels)), help, kind, v})
		})
	}

	// Sort by family first, then by the full labeled name. Sorting on
	// the raw name alone would split a family whose name prefixes
	// another ("esm_io" vs "esm_io_phase": '_' < '{'), re-emitting
	// HELP/TYPE mid-scrape — invalid exposition and nondeterministic
	// grouping. With the family as the primary key every labeled
	// variant stays contiguous and consecutive scrapes of the same
	// collectors render byte-identically.
	sort.SliceStable(rows, func(i, j int) bool {
		if fi, fj := rows[i].family, rows[j].family; fi != fj {
			return fi < fj
		}
		return rows[i].name < rows[j].name
	})
	for i := 1; i < len(rows); i++ {
		switch prev, row := rows[i-1], rows[i]; {
		case row.name == prev.name:
			panic(fmt.Sprintf("obs: %s emitted twice", row.name))
		case row.family == prev.family && row.kind != prev.kind:
			panic(fmt.Sprintf("obs: %s emitted as a %v and a %v", row.family, prev.kind, row.kind))
		}
	}
	return rows
}
