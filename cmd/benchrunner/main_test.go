package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"indexeddf/internal/bench"
)

// TestFigureTableEmitsGatedPaths is the contract with cmd/benchcheck: the
// gated metrics of every bench/baselines/BENCH_*.json — numeric fields
// whose key ends in _ns or contains alloc_bytes, list entries keyed by
// their "name" — are exactly the ones the figure table's JSON writer
// emits. Nothing is measured: the samples are synthetic.
func TestFigureTableEmitsGatedPaths(t *testing.T) {
	paths, err := filepath.Glob("../../bench/baselines/BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no baselines found: %v", err)
	}
	figs := figures(0.25, 1)
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var base map[string]any
		if err := json.Unmarshal(raw, &base); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		i := slices.IndexFunc(figs, func(f figure) bool { return f.name == base["figure"] })
		if i < 0 {
			t.Errorf("%s: figure %v is not in the figure table", path, base["figure"])
			continue
		}
		f := figs[i]
		rs := make([]bench.Result, len(f.workloads))
		for j, w := range f.workloads {
			for range w.Arms {
				rs[j].Samples = append(rs[j].Samples, bench.Sample{Wall: 1, Alloc: 1})
			}
		}
		raw, err = json.Marshal(f.document(rs, 0.25, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		var fresh any
		if err := json.Unmarshal(raw, &fresh); err != nil {
			t.Fatal(err)
		}
		if want, got := gatedPaths(base), gatedPaths(fresh); !slices.Equal(got, want) {
			t.Errorf("%s: figure %s emits gated paths\n  %v\nwant\n  %v", filepath.Base(path), f.name, got, want)
		}
	}
}

// gatedPaths lists, sorted, the metric paths cmd/benchcheck gates in doc.
func gatedPaths(doc any) []string {
	var out []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		join := func(seg string) string {
			if prefix == "" {
				return seg
			}
			return prefix + "." + seg
		}
		switch t := v.(type) {
		case map[string]any:
			for k, c := range t {
				if _, ok := c.(float64); ok {
					if strings.Contains(k, "alloc_bytes") || strings.HasSuffix(k, "_ns") {
						out = append(out, join(k))
					}
					continue
				}
				walk(join(k), c)
			}
		case []any:
			for i, c := range t {
				seg := fmt.Sprint(i)
				if m, ok := c.(map[string]any); ok {
					if name, ok := m["name"].(string); ok {
						seg = name
					}
				}
				walk(join(seg), c)
			}
		}
	}
	walk("", doc)
	slices.Sort(out)
	return out
}
