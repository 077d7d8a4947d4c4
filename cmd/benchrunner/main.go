// Command benchrunner regenerates the paper's evaluation tables:
//
//	benchrunner -fig 2        Figure 2 — SQL operators, IndexedDF vs Spark
//	benchrunner -fig 3        Figure 3 — SNB simple reads SQ1–SQ7
//	benchrunner -fig mem      §2 memory-overhead claim
//	benchrunner -fig view     materialized views — delta refresh vs recompute
//	benchrunner -fig prepare  prepared statements — plan cache vs parse-per-call
//	benchrunner -fig shuffle  batch (columnar) exchange vs row exchange, 1M-row GROUP BY
//	benchrunner -fig sort     batch sort & fused top-n vs row sort, 1M-row ORDER BY
//	benchrunner -fig memacct  memory-accounting overhead — budgets on vs off
//	benchrunner -fig obs      observability overhead — full detail vs off
//	benchrunner -fig spill    out-of-core execution — 10x-over-budget parallel sort, spilling GROUP BY, grace join
//	benchrunner -fig adapt    adaptive filter cascade vs static fused kernel on a mis-ordered WHERE clause
//	benchrunner -fig all      everything plus the max-speedup summary (§5)
//
// Every figure is a table of workloads, each run by two or more arms
// (engines or configurations) through one harness (internal/bench): the
// arms' result rows are cross-checked, then each arm is timed in turn — a
// warm-up, then -iters trials reporting the median wall time and the mean
// allocated bytes. "speedup" is the first arm's wall time over the arm's.
// Flags -sf and -seed scale and seed the SNB figures (2, 3, mem); -json
// writes the measurements as machine-readable BENCH_*.json, which
// cmd/benchcheck gates against bench/baselines/. Absolute times depend on
// the machine; the shapes (who wins, by what factor) are what reproduce
// the paper.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"indexeddf/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "which experiment: 2, 3, mem, view, prepare, shuffle, sort, memacct, obs, spill, adapt or all")
	sf := flag.Float64("sf", 1.0, "SNB scale factor (1.0 ~ 1k persons)")
	seed := flag.Int64("seed", 42, "dataset seed")
	iters := flag.Int("iters", 5, "timed trials per arm")
	jsonPath := flag.String("json", "", "write measurements as JSON (e.g. BENCH_results.json)")
	flag.Parse()

	if err := run(*fig, *sf, *seed, *iters, *jsonPath); err != nil {
		log.Fatal(err)
	}
}

func run(name string, sf float64, seed int64, iters int, jsonPath string) error {
	all := name == "all"
	figs := figures(sf, seed)
	if !all && !slices.ContainsFunc(figs, func(f figure) bool { return f.name == name }) {
		var names []string
		for _, f := range figs {
			names = append(names, f.name)
		}
		return fmt.Errorf("unknown -fig %q (want %s or all)", name, strings.Join(names, ", "))
	}
	var best struct {
		speedup float64
		name    string
	}
	for i, f := range figs {
		if !all && f.name != name {
			continue
		}
		figs[i] = figure{} // the figure's data is garbage once it is measured
		fmt.Printf("\n== %s ==\n", f.title)
		rs, err := f.measure(iters)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
		printFigure(f, rs)
		if jsonPath != "" {
			if err := writeJSON(jsonName(jsonPath, f.name, all), f.document(rs, sf, seed, iters)); err != nil {
				return err
			}
		}
		// The §5 claim compares IndexedDF with vanilla Spark: Figures 2
		// and 3 only.
		if f.name == "2" || f.name == "3" {
			for j, r := range rs {
				if s := speedup(r, 1); s > best.speedup {
					best.speedup, best.name = s, f.workloads[j].Name
				}
			}
		}
	}
	if all {
		fmt.Printf("\n§5 claim — maximum speedup vs vanilla: %.1fx (%s); paper reports \"up to 8X\"\n",
			best.speedup, best.name)
	}
	return nil
}

// measure loads the figure's data and measures its workloads in order.
func (f figure) measure(iters int) ([]bench.Result, error) {
	if f.close != nil {
		defer f.close()
	}
	if err := f.load(); err != nil {
		return nil, err
	}
	rs := make([]bench.Result, len(f.workloads))
	for i, w := range f.workloads {
		var err error
		if rs[i], err = w.Measure(iters); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// speedup is the first arm's wall time over arm i's.
func speedup(r bench.Result, i int) float64 {
	if r.Samples[i].Wall <= 0 {
		return 0
	}
	return float64(r.Samples[0].Wall) / float64(r.Samples[i].Wall)
}

func printFigure(f figure, rs []bench.Result) {
	if len(f.workloads) > 0 {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(w, "workload\tarm\twall [ms]\tspeedup\talloc [MB]\trows\t")
		for i, wl := range f.workloads {
			for j, a := range wl.Arms {
				s := rs[i].Samples[j]
				alloc := "-"
				if !wl.WallOnly {
					alloc = fmt.Sprintf("%.1f", float64(s.Alloc)/(1<<20))
				}
				fmt.Fprintf(w, "%s\t%s\t%.4f\t%.2fx\t%s\t%d\t\n", cmp.Or(wl.Name, f.name), a.Name,
					float64(s.Wall.Nanoseconds())/1e6, speedup(rs[i], j), alloc, rs[i].Rows)
			}
		}
		w.Flush()
	}
	keys := make([]string, 0, len(f.info))
	for k := range f.info {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Printf("%s: %v\n", k, f.info[k])
	}
	fmt.Println(strings.Repeat("-", 56))
}

// document is the figure's -json output. Gated metrics (cmd/benchcheck)
// are the keys ending in _ns and containing alloc_bytes.
func (f figure) document(rs []bench.Result, sf float64, seed int64, iters int) map[string]any {
	doc := map[string]any{
		"figure":       f.name,
		"scale_factor": sf,
		"seed":         seed,
		"iters":        iters,
		"go_version":   runtime.Version(),
		"timestamp":    time.Now().UTC().Format(time.RFC3339),
	}
	if f.results {
		list := make([]map[string]any, len(f.workloads))
		for i, w := range f.workloads {
			list[i] = map[string]any{"name": w.Name, "speedup": speedup(rs[i], 1), "rows": rs[i].Rows}
			for j, a := range w.Arms {
				list[i][a.Name+"_ns"] = rs[i].Samples[j].Wall.Nanoseconds()
			}
		}
		doc["results"] = list
		return doc
	}
	m := map[string]any{}
	maps.Copy(m, f.info)
	for i, w := range f.workloads {
		prefix := w.Name
		if prefix != "" {
			prefix += "_"
		}
		m[prefix+"result_rows"] = rs[i].Rows
		for j, a := range w.Arms {
			m[prefix+a.Name+"_ns"] = rs[i].Samples[j].Wall.Nanoseconds()
			if !w.WallOnly {
				m[prefix+a.Name+"_alloc_bytes"] = rs[i].Samples[j].Alloc
			}
		}
	}
	doc[f.name] = m
	return doc
}

func writeJSON(path string, doc map[string]any) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// jsonName derives a per-figure file name from the -json flag: with
// -json BENCH.json, figure 2 lands in BENCH_fig2.json and so on; a single
// figure run keeps the name as given.
func jsonName(base, fig string, multi bool) string {
	if !multi {
		return base
	}
	return fmt.Sprintf("%s_fig%s.json", strings.TrimSuffix(base, ".json"), fig)
}
