// The series subcommand: summarize (or re-emit) a flight-recorder
// series CSV written by esmbench -series or esmd -series, optionally
// windowed on simulated time. The -since/-until window flags here are
// the same ones the events renderer uses.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"esm/internal/obs"
)

// addWindowFlags registers the shared -since/-until simulated-time
// window flags on fs. A zero or negative -until means "to the end of
// the run", matching obs.Series.Window.
func addWindowFlags(fs *flag.FlagSet) (since, until *time.Duration) {
	since = fs.Duration("since", 0, "drop samples/events before this simulated time (Go duration, e.g. 10m)")
	until = fs.Duration("until", 0, "drop samples/events after this simulated time (0 = end of run)")
	return since, until
}

func runSeries(args []string) error {
	fs := flag.NewFlagSet("esmstat series", flag.ExitOnError)
	since, until := addWindowFlags(fs)
	asCSV := fs.Bool("csv", false, "re-emit the windowed series as CSV instead of the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: esmstat series [-since D] [-until D] [-csv] <run.series.csv>")
	}
	s, err := readSeriesFile(fs.Arg(0))
	if err != nil {
		return err
	}
	s = s.Window(*since, *until)
	if s.Len() == 0 {
		return fmt.Errorf("%s: no samples in window", fs.Arg(0))
	}
	if *asCSV {
		return s.WriteCSV(os.Stdout)
	}
	renderSeries(os.Stdout, s)
	return nil
}

// renderSeries prints one line per column: first and last values plus
// the min/max over the window.
func renderSeries(out io.Writer, s *obs.Series) {
	first := time.Duration(s.TimesNS[0])
	last := time.Duration(s.TimesNS[s.Len()-1])
	fmt.Fprintf(out, "%d samples, %v .. %v (interval %v)\n",
		s.Len(), first, last, time.Duration(s.IntervalNS))
	fmt.Fprintf(out, "  %-22s %14s %14s %14s %14s\n", "column", "first", "last", "min", "max")
	for i, col := range s.Cols {
		vals := s.Values[i]
		mn, mx := vals[0], vals[0]
		for _, v := range vals {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		fmt.Fprintf(out, "  %-22s %14.6g %14.6g %14.6g %14.6g\n",
			col, vals[0], vals[len(vals)-1], mn, mx)
	}
}
