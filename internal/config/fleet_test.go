package config

import (
	"strings"
	"testing"
	"time"
)

func TestParseFleetValid(t *testing.T) {
	doc := `{
		"listen": ":9090",
		"cost": {"pue": 1.2, "electricity_usd_per_kwh": 0.10, "replication_factor": 2},
		"arrays": [
			{"name": "tokyo-a", "catalog": "a.items", "placement": "a.layout",
			 "series_interval": "10s", "faults": "seed=1,spinup=0.1"},
			{"name": "osaka_b.1", "catalog": "b.items", "placement": "b.layout",
			 "config": "b.json", "enclosures": 8}
		]
	}`
	f, err := ParseFleet(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if f.Listen != ":9090" || len(f.Arrays) != 2 {
		t.Fatalf("parsed %+v", f)
	}
	if f.Cost == nil || *f.Cost.PUE != 1.2 || *f.Cost.ReplicationFactor != 2 {
		t.Fatalf("cost %+v", f.Cost)
	}
	if got := time.Duration(*f.Arrays[0].SeriesInterval); got != 10*time.Second {
		t.Fatalf("series_interval %v", got)
	}
	if f.Arrays[1].Enclosures != 8 || f.Arrays[1].Config != "b.json" {
		t.Fatalf("array[1] %+v", f.Arrays[1])
	}
}

func TestParseFleetRejects(t *testing.T) {
	cases := []struct {
		name, doc, frag string
	}{
		{"no arrays", `{"arrays": []}`, "no arrays"},
		{"unknown field", `{"arays": []}`, "unknown field"},
		{"empty name", `{"arrays":[{"name":"","catalog":"c","placement":"p"}]}`, "empty"},
		{"bad name", `{"arrays":[{"name":"a/b","catalog":"c","placement":"p"}]}`, "invalid character"},
		{"dup name", `{"arrays":[{"name":"a","catalog":"c","placement":"p"},
			{"name":"a","catalog":"c","placement":"p"}]}`, "declared twice"},
		{"missing catalog", `{"arrays":[{"name":"a","placement":"p"}]}`, "catalog and placement"},
		{"shards", `{"arrays":[{"name":"a","catalog":"c","placement":"p","shards":2}]}`, "shards"},
	}
	for _, c := range cases {
		_, err := ParseFleet(strings.NewReader(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %v, want fragment %q", c.name, err, c.frag)
		}
	}
}

func TestValidateArrayName(t *testing.T) {
	for _, ok := range []string{"a", "tokyo-a", "A.b_c-9"} {
		if err := ValidateArrayName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "a b", "a/b", "a{b", `a"b`, "fleet"} {
		if err := ValidateArrayName(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
