package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// env records where and how a result file was measured.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	DataDir    string  `json:"data_dir"`
	DataDirFS  string  `json:"data_dir_fs"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// resultFile is what -save writes and -compare reads.
type resultFile struct {
	Env  env       `json:"env"`
	Runs []*result `json:"runs"`
}

func environment(dir string, seed uint64, seconds float64) env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Kernel:     readTrimmed("/proc/sys/kernel/osrelease"),
		DataDir:    dir,
		DataDirFS:  fsType(dir),
		Commit:     commit(),
		Seed:       seed,
		Seconds:    seconds,
	}
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	for _, line := range strings.Split(readTrimmed("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType is the type of the filesystem dir is on: the mount with the
// longest mount point that is a prefix of dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(readTrimmed("/proc/self/mounts"), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// commit is the checked-out commit, marked when the tree differs from it.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		c += "-dirty"
	}
	return c
}

// save writes the file under dir as <commit>-<n>.json with the first n not
// taken, so no result is ever overwritten.
func (f *resultFile) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", f.Env.Commit, n))
		out, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := out.Write(append(data, '\n')); err != nil {
			out.Close()
			return "", err
		}
		return path, out.Close()
	}
}

// manifestFile is the part of BENCHMARK.json txbench reads.
type manifestFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []manifestMetric             `json:"end_to_end"`
	PerLayer  []manifestMetric             `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the quartiles of sorted the way Python's
// statistics.quantiles(values, n=4) does, so spreads read the same here and
// in the driver. One value is its own quartiles.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// metricValues collects, per workload, the values a metric took over the
// untraced runs of a result file.
func (f *resultFile) metricValues(name string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && !r.Trace {
			out[r.Workload] = append(out[r.Workload], m.Value)
		}
	}
	for _, v := range out {
		slices.Sort(v)
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, the manifest's bound and a verdict. A metric whose median got
// worse by more than its bound has regressed; one whose spread on either
// side is wider than the bound is unresolved, unless every run of b is
// better than every run of a. It reports whether any row regressed.
func compareFiles(out io.Writer, manifestPath, pathA, pathB string) (regressed bool, err error) {
	var m manifestFile
	var a, b resultFile
	if err := errors.Join(readJSON(manifestPath, &m), readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-16s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	valsA, valsB := map[string]map[string][]float64{}, map[string]map[string][]float64{}
	for _, mm := range m.EndToEnd {
		valsA[mm.Name], valsB[mm.Name] = a.metricValues(mm.Name), b.metricValues(mm.Name)
	}
	for _, w := range m.Workloads {
		for _, mm := range m.EndToEnd {
			va, vb := valsA[mm.Name][w.Name], valsB[mm.Name][w.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			// worse is the share of a's median by which b's is worse.
			worse := (bm - am) / am
			allBetter := vb[len(vb)-1] < va[0]
			if mm.Better == "higher" {
				worse = -worse
				allBetter = vb[0] > va[len(va)-1]
			}
			verdict := "ok"
			switch {
			case allBetter:
			case (a3-a1)/am > mm.Bound || (b3-b1)/bm > mm.Bound:
				verdict = "unresolved"
			case worse > mm.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(out, "%-16s %-22s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n",
				w.Name, mm.Name, am, bm, 100*(bm-am)/am, 100*mm.Bound, verdict)
		}
	}
	return regressed, nil
}
