package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"path"
	"strings"
	"time"
)

// buckets are the layers CPU samples fold into, in report order. Each
// esm/internal package on the measured paths is its own layer, storage
// split by file; harness is this benchmark's own code.
var buckets = []string{
	"storage.cache", "storage.enclosure", "storage.array", "storage.shard",
	"trace", "workload", "replay", "simclock", "core", "monitor",
	"powermodel", "metrics", "fleet", "obs",
	"nethttp", "runtime.gc", "harness", "other",
}

// profileLayers runs `go tool pprof -traces -lines` on a CPU profile and
// folds its samples into buckets.
func profileLayers(profile string) (map[string]time.Duration, error) {
	text, err := exec.Command("go", "tool", "pprof", "-traces", "-lines", profile).Output()
	if err != nil {
		var stderr string
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			stderr = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("go tool pprof: %v %s", err, stderr)
	}
	return foldTraces(bytes.NewReader(text))
}

// foldTraces parses pprof's -traces -lines text: a header, then one
// block per distinct stack, separated by dashed lines. A block's first
// line carries the sample value before the leaf frame; each further
// line is one caller frame, "function file:line".
func foldTraces(r io.Reader) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	var value time.Duration
	var frames []frame
	flush := func() {
		if len(frames) > 0 {
			out[classify(frames)] += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		text := strings.TrimSpace(line)
		if !inBlocks || text == "" {
			continue
		}
		if len(frames) == 0 {
			// The first line of a block is "<value> <leaf frame>".
			v, rest, _ := strings.Cut(text, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			value = d
			text = strings.TrimSpace(rest)
			if text == "" {
				return nil, fmt.Errorf("pprof traces: sample without frames in %q", line)
			}
		}
		frames = append(frames, parseFrame(text))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

type frame struct{ fn, file string }

// parseFrame splits "function file:line [(inline)]". Function names may
// contain spaces (generic shapes such as struct { A int; B int }), so
// the location is taken from the end.
func parseFrame(text string) frame {
	text = strings.TrimSuffix(text, " (inline)")
	i := strings.LastIndexByte(text, ' ')
	if i < 0 {
		return frame{fn: text}
	}
	loc := text[i+1:]
	colon := strings.LastIndexByte(loc, ':')
	if colon < 0 || colon == len(loc)-1 || strings.Trim(loc[colon+1:], "0123456789") != "" {
		return frame{fn: text}
	}
	return frame{fn: text[:i], file: loc[:colon]}
}

const esmPrefix = "esm/internal/"

// classify charges one stack (leaf first) to the innermost esm layer or
// harness frame, so runtime and standard-library work is billed to the
// code that asked for it. Stacks with neither are HTTP plumbing, garbage
// collection and other runtime background work, or other.
func classify(frames []frame) string {
	for _, f := range frames {
		if strings.HasPrefix(f.fn, "main.") {
			return "harness"
		}
		rest, ok := strings.CutPrefix(f.fn, esmPrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		if pkg == "storage" {
			switch path.Base(f.file) {
			case "cache.go":
				return "storage.cache"
			case "enclosure.go":
				return "storage.enclosure"
			case "shard.go":
				return "storage.shard"
			default:
				return "storage.array"
			}
		}
		for _, b := range buckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	}
	for _, f := range frames {
		if strings.HasPrefix(f.fn, "net/http.") || strings.HasPrefix(f.fn, "net.") || strings.HasPrefix(f.fn, "internal/poll.") {
			return "nethttp"
		}
	}
	for _, f := range frames {
		if isGC(f.fn) {
			return "runtime.gc"
		}
	}
	return "other"
}

// isGC reports whether fn belongs to the collector or its background
// workers (marking, sweeping, scavenging).
func isGC(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
