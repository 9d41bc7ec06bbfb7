// Command txbench is the repository's benchmark: five steady-state
// workloads driven in a closed loop through the public façade for the
// end-to-end metrics, and — with -trace 1 — through the same stack assembled
// from the layers' public functions, with a span around each call, for the
// per-layer metrics. See benchmarks/README.md.
//
//	go run ./benchmarks/txbench                        # all workloads, end to end
//	go run ./benchmarks/txbench -trace 1               # all workloads, per layer
//	go run ./benchmarks/txbench -workload paged_rw -seed 7 -seconds 15 -trace 0
//	go run ./benchmarks/txbench -runs 3 -save          # repeat, keep a result file
//	go run ./benchmarks/txbench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run; empty runs all five")
		seed     = flag.Uint64("seed", 1, "seed of the operation generator; run i of -runs uses seed+i")
		seconds  = flag.Float64("seconds", 15, "length of the measured phase")
		trace    = flag.Int("trace", 0, "0: façade, end-to-end metrics; 1: layer stack with spans, per-layer metrics")
		runs     = flag.Int("runs", 1, "runs per workload; more than one also prints median and quartiles")
		dir      = flag.String("dir", ".bench_build", "parent of the data directories; its filesystem is recorded")
		save     = flag.Bool("save", false, "write the runs to a new file under benchmarks/results, named by commit")
		spans    = flag.String("spans", "", "with -trace 1 and one workload: write the spans as JSON lines to this file")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments, by the bounds in -manifest")
		manifest = flag.String("manifest", "BENCHMARK.json", "the benchmark's manifest")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs())

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *trace < 0 || *trace > 1 || *runs < 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	selected := workloads()
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		selected = []*workload{w}
	}
	if *spans != "" && (len(selected) != 1 || *runs != 1 || *trace != 1) {
		fatal(fmt.Errorf("-spans needs -trace 1, one -workload and one run"))
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}

	file := resultFile{Env: environment(*dir, *seed, *seconds)}
	ok := true
	for _, w := range selected {
		var results []*result
		for i := 0; i < *runs; i++ {
			cfg := runConfig{w: w.scaled(1), seed: *seed + uint64(i), seconds: *seconds, dir: *dir, spans: *spans}
			run := runUntraced
			if *trace == 1 {
				run = runTraced
			}
			res, err := run(cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			printResult(res)
			ok = ok && res.correct()
			results = append(results, res)
		}
		if *runs > 1 {
			printSpread(results)
		}
		file.Runs = append(file.Runs, results...)
	}
	if *save {
		path, err := file.save("benchmarks/results")
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "txbench:", err)
	os.Exit(1)
}

// printResult prints every metric of a run by name with its unit, the
// failed checks, and as the last line the run as one JSON object.
func printResult(r *result) {
	mode := "end to end"
	if r.Trace {
		mode = "per layer"
	}
	fmt.Printf("== %s (%s, seed %d): %d operations attempted, %d failed, %d latency samples\n",
		r.Workload, mode, r.Seed, r.Attempted, r.Failed, r.Samples)
	if t := r.TailUs; t != nil {
		fmt.Printf("latency of all samples in us: p90 %.0f, p95 %.0f, p98 %.0f, p99 %.0f, p99.9 %.0f, max %.0f\n",
			t["p90"], t["p95"], t["p98"], t["p99"], t["p99.9"], t["max"])
	}
	for _, n := range metricNames(r) {
		fmt.Printf("%-28s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, p := range r.Problems {
		fmt.Println("FAILED CHECK:", p)
	}
	for _, f := range r.Flags {
		fmt.Println("flag:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func metricNames(r *result) []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printSpread prints median and quartiles of every metric over the runs of
// one workload.
func printSpread(results []*result) {
	fmt.Printf("== %s: median [q1, q3] over %d runs\n", results[0].Workload, len(results))
	for _, n := range metricNames(results[0]) {
		var vals []float64
		for _, r := range results {
			vals = append(vals, r.Metrics[n].Value)
		}
		slices.Sort(vals)
		q1, q2, q3 := quartiles(vals)
		fmt.Printf("%-28s %14.4f [%.4f, %.4f] %s\n", n, q2, q1, q3, results[0].Metrics[n].Unit)
	}
}
