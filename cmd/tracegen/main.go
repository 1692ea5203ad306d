// Command tracegen generates the synthetic application traces used by
// the evaluation (file server, OLTP, DSS, the multi-tenant cloud-block
// workload, or a generic synthetic mix) and writes them to disk together
// with their item catalog and initial placement. The trace is written in
// the compact binary stream format (the default), CSV, or NDJSON (the
// wire format of esmd's fleet ingest endpoint). Every format is written
// record by record straight off the workload's lazy trace source, in
// one pass that also computes the printed summary, so traces larger
// than memory can be generated.
//
// Usage:
//
//	tracegen -workload fileserver -scale 0.5 -out fs.trace -catalog fs.items -placement fs.layout
//	tracegen -workload oltp -format csv -out oltp.csv -catalog oltp.items -placement oltp.layout
//
// Every format can be replayed with esmreplay and inspected with
// esmstat -trace.
package main

import (
	"flag"
	"fmt"
	"os"

	"esm/internal/experiments"
	"esm/internal/obs"
	"esm/internal/trace"
	"esm/internal/workload"
)

func main() {
	kind := flag.String("workload", "fileserver", "fileserver, oltp, dss, cloudblock, sensor or synthetic")
	scale := flag.Float64("scale", 1.0, "time-scale factor (1.0 = paper-scale durations)")
	seed := flag.Int64("seed", 0, "override the workload's default seed (0 = keep)")
	format := flag.String("format", "stream", "stream, csv or ndjson")
	out := flag.String("out", "", "trace output path (required)")
	catalogPath := flag.String("catalog", "", "catalog output path (required)")
	placementPath := flag.String("placement", "", "initial-placement output path (required)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("tracegen"))
		return
	}

	if *out == "" || *catalogPath == "" || *placementPath == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -out, -catalog and -placement are required")
		os.Exit(2)
	}
	if err := run(*kind, *scale, *seed, *format, *out, *catalogPath, *placementPath); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(kind string, scale float64, seed int64, format, out, catalogPath, placementPath string) error {
	var w *workload.Workload
	var err error
	switch kind {
	case "synthetic":
		cfg := workload.DefaultSyntheticConfig()
		if seed != 0 {
			cfg.Seed = seed
		}
		w, err = workload.GenerateSynthetic(cfg)
	case "sensor":
		cfg := workload.DefaultSensorConfig().Scaled(scale)
		if seed != 0 {
			cfg.Seed = seed
		}
		w, err = workload.GenerateSensorArchive(cfg)
	default:
		w, err = buildWithSeed(experiments.Kind(kind), scale, seed)
	}
	if err != nil {
		return err
	}

	tf, err := os.Create(out)
	if err != nil {
		return err
	}
	defer tf.Close()
	var tw incrementalWriter
	switch format {
	case "stream":
		tw = trace.NewStreamWriter(tf)
	case "csv":
		tw = trace.NewCSVWriter(tf)
	case "ndjson":
		tw = trace.NewNDJSONWriter(tf)
	default:
		return fmt.Errorf("unknown format %q (want stream, csv or ndjson)", format)
	}
	sum, err := writeIncremental(tw, w.Source())
	if err != nil {
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}

	cf, err := os.Create(catalogPath)
	if err != nil {
		return err
	}
	defer cf.Close()
	if err := trace.WriteCatalog(cf, w.Catalog); err != nil {
		return err
	}
	if err := cf.Close(); err != nil {
		return err
	}

	pf, err := os.Create(placementPath)
	if err != nil {
		return err
	}
	defer pf.Close()
	if err := trace.WritePlacement(pf, w.Placement); err != nil {
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}

	fmt.Printf("%s: %s\n", w.Name, sum)
	fmt.Printf("wrote %s (%s), %s (%d items), %s (%d enclosures)\n", out, format, catalogPath, w.Catalog.Len(), placementPath, w.Enclosures)
	return nil
}

// incrementalWriter is the shared shape of the record-by-record codecs.
type incrementalWriter interface {
	Append(trace.LogicalRecord) error
	Close() error
}

// writeIncremental drains src through an appending codec in O(items)
// memory and returns the summary of what it wrote: the one pass over
// the workload's generators.
func writeIncremental(tw incrementalWriter, src trace.Source) (trace.Summary, error) {
	sum, err := trace.SummarizeSource(trace.TapSource(src, tw.Append))
	if err != nil {
		return trace.Summary{}, err
	}
	return sum, tw.Close()
}

func buildWithSeed(kind experiments.Kind, scale float64, seed int64) (*workload.Workload, error) {
	switch kind {
	case experiments.FileServer:
		cfg := workload.DefaultFileServerConfig().Scaled(scale)
		if seed != 0 {
			cfg.Seed = seed
		}
		return workload.GenerateFileServer(cfg)
	case experiments.OLTP:
		cfg := workload.DefaultOLTPConfig().Scaled(scale)
		if seed != 0 {
			cfg.Seed = seed
		}
		return workload.GenerateOLTP(cfg)
	case experiments.DSS:
		cfg := workload.DefaultDSSConfig().Scaled(scale)
		if seed != 0 {
			cfg.Seed = seed
		}
		return workload.GenerateDSS(cfg)
	case experiments.CloudBlock:
		cfg := workload.DefaultCloudBlockConfig().Scaled(scale)
		if seed != 0 {
			cfg.Seed = seed
		}
		return workload.GenerateCloudBlock(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", kind)
	}
}
