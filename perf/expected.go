package main

import (
	_ "embed"
	"encoding/json"
)

// expected.json pins each workload's outputs at the default seed and
// scale. Regenerate it only for a change meant to alter simulated
// results: run the default seed and copy each workload's "outputs".
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	Seed      int64              `json:"seed"`
	Workloads map[string]outputs `json:"workloads"`
}

var expected = func() expectedFile {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		panic("perf: expected.json: " + err.Error()) // embedded at build time
	}
	return f
}()

// expectedFor returns the pinned outputs of a workload at seed, if any.
func expectedFor(name string, seed int64) (outputs, bool) {
	if seed != expected.Seed {
		return outputs{}, false
	}
	o, ok := expected.Workloads[name]
	return o, ok
}
