package main

import (
	"cmp"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Seed      uint64 `json:"seed"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Samples   int    `json:"samples"` // latency samples behind the percentiles
	// TailUs shows the shape of the latency tail around the reported p99.
	TailUs  map[string]float64 `json:"tail_us,omitempty"`
	Metrics map[string]metric  `json:"metrics"`
	// Problems are failed checks: wrong outcomes, state or reopen
	// mismatches, violated constraints, a trace that does not reconcile.
	Problems []string `json:"problems,omitempty"`
	// Flags are observations that do not fail the run.
	Flags []string `json:"flags,omitempty"`
}

func (r *result) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

// add counts a phase's operations and failed outcomes into the run.
func (r *result) add(p phase) {
	r.Attempted += p.ops
	r.Failed += p.failed
	r.Problems = append(r.Problems, p.problems...)
}

// runConfig is what one run needs besides its workload.
type runConfig struct {
	w       *workload // scaled, clients resolved
	seed    uint64
	seconds float64
	dir     string // parent of the run's data directories
	spans   string // file the traced run writes its spans to; empty for none
}

// setupReps is how often the untraced run builds its database; setup_s takes
// the median so one slow load does not read as a regression.
const setupReps = 3

// Share of a traced run's seconds spent on the untraced baseline that
// trace.overhead_ratio is measured against. Both phases start from a freshly
// built database and last equally long, so a workload whose cost drifts as
// it runs (paged_rw) is compared over the same stretch of the drift.
const baselineShare = 0.5

// sample is one call: when it returned, in µs from the phase's start, and
// how long it took, in ns (4.29 s at most). Eight bytes, because the samples
// live on the heap whose size sets how often the engine's garbage is
// collected: 1.4 MiB for a 15 s run against a live heap of 5 to 40 MiB.
type sample struct{ endUs, latNs uint32 }

func (s sample) end() time.Duration { return time.Duration(s.endUs) * time.Microsecond }
func (s sample) lat() time.Duration { return time.Duration(s.latNs) }

// phase is what driving the clients for a while produced.
type phase struct {
	ops, failed int64
	wall        time.Duration
	samples     []sample // every call, all clients
	problems    []string
}

// drive runs the closed loop: every client submits its next operation when
// the previous call returns. With n > 0 each client runs n operations,
// otherwise clients run until d has passed.
func drive(sess []session, gens []generator, n int, d time.Duration) phase {
	type clientOut struct {
		samples  []sample
		failed   int64
		problems []string
	}
	outs := make([]clientOut, len(sess))
	for c := range outs {
		// Sized so the measured phase does not grow it: growth would count
		// as the engine's allocation.
		outs[c].samples = make([]sample, 0, max(n, int(d.Seconds()*12000)/len(sess)))
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range sess {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, g, out := sess[c], gens[c], &outs[c]
			for i := 0; ; i++ {
				if n > 0 && i == n || n == 0 && !time.Now().Before(deadline) {
					break
				}
				o := g.next()
				t0 := time.Now()
				problem := perform(s, o)
				t1 := time.Now()
				out.samples = append(out.samples, sample{
					endUs: uint32(t1.Sub(start).Microseconds()),
					latNs: uint32(min(t1.Sub(t0), math.MaxUint32)),
				})
				if problem != "" {
					out.failed++
					if len(out.problems) < 3 {
						out.problems = append(out.problems, problem)
					}
				}
			}
		}()
	}
	wg.Wait()
	var p phase
	for _, out := range outs {
		p.ops += int64(len(out.samples))
		p.failed += out.failed
		p.samples = append(p.samples, out.samples...)
		p.problems = append(p.problems, out.problems...)
		if n := len(out.samples); n > 0 {
			p.wall = max(p.wall, out.samples[n-1].end())
		}
	}
	return p
}

// perform runs one operation and compares its outcome with the model's
// expectation; it returns a description of the mismatch, or "".
func perform(s session, o op) string {
	if o.query {
		rows, err := s.Query(o.text)
		if err != nil {
			return fmt.Sprintf("%s: %v", o.text, err)
		}
		var sum int64
		for _, r := range rows {
			v, _ := r[len(r)-1].(int64)
			sum += v
		}
		if len(rows) != o.wantRows || sum != o.wantSum {
			return fmt.Sprintf("%s: %d rows summing to %d, want %d and %d", o.text, len(rows), sum, o.wantRows, o.wantSum)
		}
		return ""
	}
	out, err := s.Submit(o.text)
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", o.text, err)
	case o.wantConstraint == "" && !out.committed:
		return fmt.Sprintf("%s: aborted (%s), want commit", o.text, out.reason)
	case o.wantConstraint != "" && out.committed:
		return fmt.Sprintf("%s: committed, want abort by %s", o.text, o.wantConstraint)
	case out.constraint != o.wantConstraint:
		return fmt.Sprintf("%s: aborted by %q, want %s", o.text, out.constraint, o.wantConstraint)
	}
	return ""
}

// instance is one built database with its clients, ready to drive.
type instance struct {
	w    *workload
	dir  string
	open func(paged bool) (engine, error)
	e    engine
	gens []generator
	sess []session
}

// newInstance builds the workload's database in a fresh directory under
// cfg.dir, using open to reach the engine.
func newInstance(cfg runConfig, open func(dir string, paged bool) (engine, error)) (*instance, error) {
	dir, err := os.MkdirTemp(cfg.dir, "txbench-"+cfg.w.name+"-")
	if err != nil {
		return nil, err
	}
	in := &instance{w: cfg.w, dir: dir}
	in.open = func(paged bool) (engine, error) { return open(dir, paged) }
	if in.e, err = cfg.w.build(in.open); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for c := 0; c < cfg.w.clients; c++ {
		in.gens = append(in.gens, newGenerator(cfg.w, cfg.seed, c))
		in.sess = append(in.sess, in.e.session(c, cfg.seed))
	}
	return in, nil
}

// discard closes the database and removes its directory.
func (in *instance) discard() {
	if in.e != nil {
		in.e.Close()
	}
	os.RemoveAll(in.dir)
}

// warm runs the untimed operations that let index layers reach their
// compaction cadence and caches fill.
func (in *instance) warm(res *result) {
	res.add(drive(in.sess, in.gens, max(in.w.warmOps/in.w.clients, 1), 0))
}

// reopened is what the end of a durable run measured; zero in memory.
type reopened struct {
	reopen      time.Duration // Open to a state verified equal to the pre-close one
	checkpoint  time.Duration // the explicit Checkpoint after that
	bytesPerRow float64       // directory bytes after the last Close per live row
}

// finish verifies the final state against the model and the constraints;
// on a durable workload it then closes, reopens, compares the recovered
// state with the pre-close one, checkpoints and closes again.
func (in *instance) finish(res *result) (reopened, error) {
	w := in.w
	pre, problems, err := verifyState(in.e, w, in.gens)
	res.Problems = append(res.Problems, problems...)
	if err != nil || !w.durable {
		return reopened{}, err
	}
	e := in.e
	in.e = nil
	if err := e.Close(); err != nil {
		return reopened{}, err
	}
	var r reopened
	t0 := time.Now()
	if e, err = in.open(w.cacheBytes > 0); err != nil {
		return r, err
	}
	in.e = e
	if err := w.defineRules(e); err != nil {
		return r, err
	}
	post, err := stateSums(e, w)
	if err != nil {
		return r, err
	}
	r.reopen = time.Since(t0)
	res.Problems = append(res.Problems, diffSums("reopened vs pre-close", post, pre)...)
	if problems, err = violations(e, w); err != nil {
		return r, err
	}
	res.Problems = append(res.Problems, problems...)
	t0 = time.Now()
	if err := e.Checkpoint(); err != nil {
		return r, err
	}
	r.checkpoint = time.Since(t0)
	in.e = nil
	if err := e.Close(); err != nil {
		return r, err
	}
	rows := 0
	if !w.kv {
		rows = itemRows
	}
	for _, s := range post {
		rows += s.count
	}
	size, err := dirSize(in.dir)
	r.bytesPerRow = float64(size) / float64(rows)
	return r, err
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// percentile returns the q-quantile of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

// numSlices is the number of equal runs of consecutive calls the measured
// phase is cut into. Throughput and latency percentiles are taken per slice
// and the middle of the slices is reported, so a stretch disturbed from
// outside (another tenant of the machine, a burst of write-back) does not
// move the result.
const numSlices = 10

// sliceStats cuts the calls, in the order they returned, into numSlices
// equal counts and returns the mean of the middle six slices' throughput in
// calls per second (a median would jump between the two values a periodic
// workload's slices take) and the median slice's latency percentiles.
func sliceStats(samples []sample) (perSec, p50, p99 float64) {
	slices.SortFunc(samples, func(a, b sample) int { return cmp.Compare(a.endUs, b.endUs) })
	k := numSlices
	if len(samples) < 100*k {
		k = 1
	}
	n := len(samples) / k
	var rates, p50s, p99s []float64
	var from time.Duration
	lat := make([]time.Duration, n)
	for i := 0; i < k; i++ {
		slice := samples[i*n : (i+1)*n]
		for j, sm := range slice {
			lat[j] = sm.lat()
		}
		slices.Sort(lat)
		rates = append(rates, float64(n)/(slice[n-1].end()-from).Seconds())
		p50s = append(p50s, us(percentile(lat, 0.50)))
		p99s = append(p99s, us(percentile(lat, 0.99)))
		from = slice[n-1].end()
	}
	slices.Sort(rates)
	mid := rates[k/5 : k-k/5]
	for _, r := range mid {
		perSec += r / float64(len(mid))
	}
	return perSec, median(p50s), median(p99s)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	_, m, _ := quartiles(s)
	return m
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runUntraced drives the public façade and reports the end-to-end metrics.
func runUntraced(cfg runConfig) (*result, error) {
	w := cfg.w
	res := &result{Workload: w.name, Seed: cfg.seed, Metrics: map[string]metric{}}
	open := func(dir string, paged bool) (engine, error) { return openFacade(w, dir, paged) }

	var in *instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if in != nil {
			in.discard()
		}
		t0 := time.Now()
		var err error
		if in, err = newInstance(cfg, open); err != nil {
			return nil, err
		}
		in.warm(res)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.discard()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := drive(in.sess, in.gens, 0, time.Duration(cfg.seconds*float64(time.Second)))
	runtime.ReadMemStats(&m1)
	if p.ops == 0 {
		return nil, fmt.Errorf("no operation returned within %v s", cfg.seconds)
	}

	res.add(p)
	res.Samples = len(p.samples)
	all := make([]time.Duration, len(p.samples))
	for i, sm := range p.samples {
		all[i] = sm.lat()
	}
	slices.Sort(all)
	res.TailUs = map[string]float64{
		"p90": us(percentile(all, 0.90)), "p95": us(percentile(all, 0.95)), "p98": us(percentile(all, 0.98)),
		"p99": us(percentile(all, 0.99)), "p99.9": us(percentile(all, 0.999)), "max": us(all[len(all)-1]),
	}
	ops := float64(p.ops)
	perSec, p50, p99 := sliceStats(p.samples)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["txn_per_s"] = metric{perSec, "1/s"}
	res.Metrics["submit_p50_us"] = metric{p50, "us"}
	res.Metrics["submit_p99_us"] = metric{p99, "us"}
	res.Metrics["allocs_per_txn"] = metric{float64(m1.Mallocs-m0.Mallocs) / ops, "count"}
	res.Metrics["alloc_bytes_per_txn"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / ops, "B"}
	// The live heap is the engine's plus the generators' model; the samples
	// are the benchmark's own and are dropped first. Two collections,
	// because what an earlier instance's finalizers held goes in the second.
	p.samples, all = nil, nil
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	res.Metrics["heap_live_mb"] = metric{float64(m2.HeapAlloc) / (1 << 20), "MiB"}

	if _, err := in.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// regDelta is the change of the engine's metric registry over the measured
// phase: the only in-program numbers the traced run reads.
type regDelta struct{ a, b obs.Snapshot }

func (d regDelta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}
func (d regDelta) sum(name string) float64 {
	return float64(d.b.Histograms[name].Sum - d.a.Histograms[name].Sum)
}
func (d regDelta) hist(name string) obs.HistSnapshot {
	a, h := d.a.Histograms[name], d.b.Histograms[name]
	for i := range h.Counts {
		h.Counts[i] -= a.Counts[i]
	}
	h.Count -= a.Count
	h.Sum -= a.Sum
	return h
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gcSample reads the runtime's GC accounting.
type gcSample struct {
	cycles          uint32
	pauseNs         uint64
	gcCPU, totalCPU float64
}

func readGC() gcSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{cycles: m.NumGC, pauseNs: m.PauseTotalNs, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// runTraced measures a short untraced baseline through the façade, then
// drives the stack assembled from the layers with a span around each call
// and reports the per-layer metrics.
func runTraced(cfg runConfig) (*result, error) {
	w := cfg.w
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: true, Metrics: map[string]metric{}}
	measured := time.Duration(cfg.seconds * float64(time.Second))
	baseFor := time.Duration(float64(measured) * baselineShare)

	// The span buffers exist before the baseline runs, so both phases run
	// on the same heap size and so at the same GC frequency.
	tr := newTracer(w.clients)
	base, err := newInstance(cfg, func(dir string, paged bool) (engine, error) { return openFacade(w, dir, paged) })
	if err != nil {
		return nil, err
	}
	base.warm(res)
	bp := drive(base.sess, base.gens, 0, baseFor)
	base.discard()
	res.add(bp)

	reg := obs.NewRegistry()
	in, err := newInstance(cfg, func(dir string, paged bool) (engine, error) { return openStack(w, dir, paged, reg, tr) })
	if err != nil {
		return nil, err
	}
	defer in.discard()
	in.warm(res)
	for _, b := range tr.clients {
		b.reset()
	}

	g0, s0 := readGC(), reg.Snapshot()
	p := drive(in.sess, in.gens, 0, measured-baseFor)
	g1, s1 := readGC(), reg.Snapshot()
	if p.ops == 0 || bp.ops == 0 {
		return nil, fmt.Errorf("no operation returned within %v s", cfg.seconds)
	}
	res.add(p)
	res.Samples = len(p.samples)
	if cfg.spans != "" {
		if err := tr.writeSpans(cfg.spans); err != nil {
			return nil, err
		}
	}

	fin, err := in.finish(res)
	if err != nil {
		return nil, err
	}
	s2 := reg.Snapshot()

	d := regDelta{s0, s1}
	self, spanOps := tr.selfTimes()
	ops := float64(p.ops)
	if spanOps != p.ops {
		res.Problems = append(res.Problems, fmt.Sprintf("trace: %d root spans for %d operations", spanOps, p.ops))
	}
	perOpUs := func(ns float64) float64 { return ns / 1e3 / ops }
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	var attempts, retries, added, elided int64
	for _, b := range tr.clients {
		attempts += b.attempts
		retries += b.retries
		added += b.stmtsAdded
		elided += b.checksElided
	}
	for n := spanParse; n < numSpanNames; n++ {
		put(spanLabels[n]+"_us", perOpUs(float64(self[n])), "us")
	}
	put("core.stmts_added_per_txn", float64(added)/ops, "count")
	put("core.checks_elided_per_txn", float64(elided)/ops, "count")
	put("txn.attempts_per_txn", float64(attempts)/ops, "count")
	put("txn.retries_per_txn", float64(retries)/ops, "count")

	put("index.probes_per_txn", d.counter("repro_index_probes_total")/ops, "count")
	put("index.range_probes_per_txn", d.counter("repro_index_range_probes_total")/ops, "count")
	put("index.full_scans_per_txn", d.counter("repro_index_full_scans_total")/ops, "count")
	put("index.compactions_per_ktxn", 1000*d.counter("repro_index_compactions_total")/ops, "count")
	put("index.max_depth", float64(s1.Gauges["repro_index_max_depth"]), "count")

	// storage.commit_us is the span around TryCommit; the registry's stage
	// sums split it and the remainder is time queued behind the drainer.
	commit := perOpUs(float64(self[spanCommit]))
	stages := 0.0
	for _, st := range []string{"validate", "derive", "wal", "publish"} {
		v := perOpUs(d.sum("repro_storage_stage_" + st + "_seconds"))
		put("storage."+st+"_us", v, "us")
		stages += v
	}
	put("storage.commit_wait_us", max(commit-stages, 0), "us")
	if stages > commit {
		res.Problems = append(res.Problems,
			fmt.Sprintf("trace: storage stages sum to %.2f us per op, more than the %.2f us commit span", stages, commit))
	}
	put("storage.conflicts_per_txn", d.counter("repro_storage_conflicts_total")/ops, "count")
	put("storage.merged_per_txn", d.counter("repro_storage_merged_commits_total")/ops, "count")
	put("storage.cross_shard_per_txn", d.counter("repro_storage_cross_shard_commits_total")/ops, "count")
	put("storage.txns_per_epoch", ratio(d.counter("repro_storage_commits_total"), d.counter("repro_storage_epochs_total")), "count")

	put("wal.append_us", perOpUs(d.sum("repro_wal_append_seconds")), "us")
	put("wal.fsync_p50_us", d.hist("repro_wal_fsync_seconds").Quantile(0.5)/1e3, "us")
	put("wal.fsyncs_per_txn", d.counter("repro_wal_fsyncs_total")/ops, "count")
	put("wal.bytes_per_txn", d.sum("repro_wal_append_bytes")/ops, "B")
	put("wal.rotations", d.counter("repro_wal_segment_rotations_total"), "count")

	put("checkpoint.runs", d.counter("repro_checkpoint_runs_total"), "count")
	put("checkpoint.seconds_total", d.sum("repro_checkpoint_seconds")/1e9, "s")
	put("checkpoint.final_ms", float64(fin.checkpoint.Nanoseconds())/1e6, "ms")
	openMs := 0.0
	if w.durable {
		openMs = float64(tr.openNs) / 1e6
	}
	put("recovery.open_ms", openMs, "ms")
	put("recovery.replayed_records", float64(s2.Counters["repro_recovery_replayed_records_total"]-s1.Counters["repro_recovery_replayed_records_total"]), "count")
	put("recovery.reopen_s", fin.reopen.Seconds(), "s")
	put("storage.disk_bytes_per_row", fin.bytesPerRow, "B")

	hits, misses := d.counter("repro_storage_cache_hits_total"), d.counter("repro_storage_cache_misses_total")
	put("cache.hit_rate", ratio(hits, hits+misses), "ratio")
	put("cache.misses_per_txn", misses/ops, "count")
	put("cache.evictions_per_txn", d.counter("repro_storage_cache_evictions_total")/ops, "count")
	put("cache.fault_us", perOpUs(d.sum("repro_storage_cache_fault_seconds")), "us")
	put("cache.occupancy_bytes", float64(s1.Gauges["repro_storage_cache_occupancy"]), "B")

	put("gc.cycles", float64(g1.cycles-g0.cycles), "count")
	put("gc.cpu_share", ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU), "ratio")
	put("gc.pause_total_ms", float64(g1.pauseNs-g0.pauseNs)/1e6, "ms")

	// Reconciliation: the spans' self times, the driver's own included,
	// must account for the wall time the clients spent.
	var spanSum int64
	for _, v := range self {
		spanSum += v
	}
	spanUs := perOpUs(float64(spanSum))
	wallUs := us(p.wall) * float64(w.clients) / ops
	put("trace.span_sum_us", spanUs, "us")
	put("trace.wall_us", wallUs, "us")
	if spanUs < 0.95*wallUs || spanUs > 1.05*wallUs {
		res.Problems = append(res.Problems,
			fmt.Sprintf("trace: span self times sum to %.2f us per op, wall time is %.2f us", spanUs, wallUs))
	}
	overhead := wallUs / (us(bp.wall) * float64(w.clients) / float64(bp.ops))
	put("trace.overhead_ratio", overhead, "ratio")
	if w.clients == 1 && overhead > 1.15 {
		res.Flags = append(res.Flags, fmt.Sprintf("tracing overhead ratio %.3f exceeds 1.15", overhead))
	}
	return res, nil
}
