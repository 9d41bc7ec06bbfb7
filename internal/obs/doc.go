// Package obs is the engine's dependency-free observability core: striped
// atomic counters, gauges and fixed-bucket histograms behind a named
// registry, a typed transaction/epoch lifecycle Tracer, and two zero-config
// exporters (Prometheus text format, expvar).
//
// Design constraints, in order:
//
//   - Near-zero cost when off. Every metric type is nil-receiver-safe: a
//     nil *Counter's Add is a single predictable branch, so instrumented
//     code holds plain struct fields and never tests a feature flag. Timing
//     call sites guard on the histogram pointer before calling time.Now, so
//     a disabled registry skips the clock reads too.
//   - Low contention when on. Counters and histograms are striped across
//     cache-line-padded cells; the stripe is picked by hashing the address
//     of a stack variable, which is stable per goroutine for the duration
//     of a call and needs no runtime hooks. Reads (Value, Snapshot) sum the
//     stripes; they are monotone but not a consistent cut across metrics.
//   - Fixed memory. Histograms use power-of-two buckets (bucket i counts
//     values whose bit length is i), so a histogram is a flat array — no
//     allocation on the observe path, quantiles by interpolation inside a
//     bucket. Latency histograms observe nanoseconds; the Prometheus writer
//     converts *_seconds metrics to seconds on the way out.
//
// Naming convention (enforced by the registry at runtime and by
// cmd/obslint statically): every metric is
// repro_<layer>_<what>[_<unit>] with layer one of txn, storage, wal,
// index, checkpoint, recovery; counters end in _total; histograms end in
// _seconds, _bytes or _size; gauges end in none of those.
//
// The Tracer interface receives typed Events at transaction and epoch
// lifecycle points (begin, probe, enqueue, validate verdict, WAL append and
// fsync, publish, retry, snapshot-too-old refusal, checkpoint and recovery
// progress). Tracer implementations are called synchronously from the
// commit pipeline — some sites run under the commit lock, so a tracer must
// not block (the one exception, used by tests, is the enqueue event, which
// is emitted lock-free).
package obs
