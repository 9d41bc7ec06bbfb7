package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(maxProcs())
	os.Exit(m.Run())
}

func readManifest(t *testing.T) manifestFile {
	t.Helper()
	var m manifestFile
	if err := readJSON("../../BENCHMARK.json", &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSmoke runs every workload untraced and traced at 1 % scale and checks
// that each run is correct and emits exactly the manifest's metrics.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	if len(m.Workloads) != len(workloads()) {
		t.Fatalf("manifest names %d workloads, txbench has %d", len(m.Workloads), len(workloads()))
	}
	for _, mw := range m.Workloads {
		w, err := findWorkload(mw.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !nameRE.MatchString(mw.Name) || mw.Why != w.why {
			t.Errorf("manifest workload %q: bad name, or its why differs from txbench's", mw.Name)
		}
		cfg := runConfig{w: w.scaled(0.01), seed: 1, seconds: 0.2, dir: t.TempDir()}
		for _, mode := range []struct {
			run  func(runConfig) (*result, error)
			want []manifestMetric
		}{{runUntraced, m.EndToEnd}, {runTraced, m.PerLayer}} {
			res, err := mode.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.correct() || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed, problems %q", w.name, res.Trace, res.Attempted, res.Failed, res.Problems)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%v: %d metrics emitted, manifest names %d", w.name, res.Trace, len(res.Metrics), len(mode.want))
			}
			for _, mm := range mode.want {
				got, ok := res.Metrics[mm.Name]
				if !ok || got.Unit != mm.Unit {
					t.Errorf("%s trace=%v: metric %s: emitted %v with unit %q, manifest says %q", w.name, res.Trace, mm.Name, ok, got.Unit, mm.Unit)
				}
				if !nameRE.MatchString(mm.Name) {
					t.Errorf("metric name %q", mm.Name)
				}
			}
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads() {
		w = w.scaled(1)
		if streamHash(w, 1, 500) != streamHash(w, 1, 500) {
			t.Errorf("%s: same seed, different streams", w.name)
		}
		if streamHash(w, 1, 500) == streamHash(w, 2, 500) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 20, 40})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles(10 20 40) = %v %v %v, want 10 20 40", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	runs := func(tps, p50, p99 [3]float64) resultFile {
		var f resultFile
		for i := range tps {
			f.Runs = append(f.Runs, &result{Workload: "w", Metrics: map[string]metric{
				"txn_per_s": {tps[i], "1/s"}, "p50": {p50[i], "us"}, "p99": {p99[i], "us"},
			}})
		}
		return f
	}
	manifest := write("m.json", map[string]any{
		"workloads": []map[string]string{{"name": "w"}},
		"end_to_end": []manifestMetric{
			{Name: "txn_per_s", Better: "higher", Bound: 0.1},
			{Name: "p50", Better: "lower", Bound: 0.1},
			{Name: "p99", Better: "lower", Bound: 0.1},
		},
	})
	a := write("a.json", runs([3]float64{100, 101, 102}, [3]float64{10, 10, 10}, [3]float64{50, 70, 90}))
	b := write("b.json", runs([3]float64{80, 81, 82}, [3]float64{10.5, 10.5, 10.5}, [3]float64{55, 70, 95}))
	var out bytes.Buffer
	regressed, err := compareFiles(&out, manifest, a, b)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !regressed || len(lines) != 4 ||
		!strings.HasSuffix(lines[1], "regressed") || !strings.HasSuffix(lines[2], "ok") || !strings.HasSuffix(lines[3], "unresolved") {
		t.Errorf("regressed=%v, output:\n%s", regressed, out.String())
	}
	if regressed, err = compareFiles(&out, manifest, a, a); err != nil || regressed {
		t.Errorf("a file compared with itself: regressed=%v err=%v", regressed, err)
	}
}
