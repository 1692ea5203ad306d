// Per-enclosure power-state timelines: the ordered {t, state, cause}
// segments behind the §III-B power status records, rebuilt from a saved
// event stream so a bad energy result can be walked transition by
// transition.

package obs

import "time"

// Segment is one power-state change: the enclosure entered State at
// time T because of Cause. States are "off" and "spinup"; service
// begins the spin-up time after a spin-up.
type Segment struct {
	T     time.Duration `json:"t_ns"`
	State string        `json:"state"`
	Cause Cause         `json:"cause"`
}

// PowerSegments rebuilds each enclosure's power segments from the
// spin-up and off transitions of one run, in stream order; the "on"
// record that ends a spin-up adds no segment. An enclosure starts on.
func PowerSegments(events []Event) map[int][]Segment {
	segs := map[int][]Segment{}
	for _, ev := range events {
		if ev.Type != EvPowerOn && ev.Type != EvPowerOff || ev.Power.State == "on" {
			continue
		}
		p := ev.Power
		segs[p.Enclosure] = append(segs[p.Enclosure], Segment{
			T: time.Duration(ev.T), State: p.State, Cause: p.Cause,
		})
	}
	return segs
}

// OffTime sums the time spent powered off up to end, assuming the
// enclosure starts on at t=0.
func OffTime(segs []Segment, end time.Duration) time.Duration {
	var total time.Duration
	var offAt time.Duration
	off := false
	for _, s := range segs {
		switch s.State {
		case "off":
			if !off {
				off = true
				offAt = s.T
			}
		case "spinup":
			if off {
				total += s.T - offAt
				off = false
			}
		}
	}
	if off && end > offAt {
		total += end - offAt
	}
	return total
}
