package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies the layer call a span surrounds.
type spanName uint8

const (
	spanOp          spanName = iota // one whole operation; its self time is the driver's own
	spanParse                       // lang.ParseTransaction / ParseProgram
	spanModify                      // core.Subsystem.Modify
	spanTypecheck                   // Program.TypeCheck
	spanExecUser                    // Stmt.Exec of the submitted statements
	spanExecEnforce                 // Stmt.Exec of the statements modification appended
	spanCommit                      // txn.Sequencer.TryCommit
	spanBackoff                     // sleep between a conflict and the retry
	spanReport                      // Transaction.String / result rows
	numSpanNames
)

var spanLabels = [numSpanNames]string{
	"op", "lang.parse", "core.modify", "txn.typecheck", "txn.exec_user",
	"txn.exec_enforce", "storage.commit", "txn.backoff", "txn.report",
}

// span is one timed call: name, start, end, the span that caused it and the
// operation both belong to.
type span struct {
	op         int32
	parent     int32 // index in the same buffer; -1 for an operation's root
	name       spanName
	start, end int64 // ns since the tracer's epoch
}

// spanBuf is one client's spans and driver-side counts. It is used by that
// client's goroutine only, so recording takes no lock. A nil buffer
// records nothing.
type spanBuf struct {
	epoch time.Time
	spans []span
	ops   int32

	attempts, retries        int64
	stmtsAdded, checksElided int64
}

func (b *spanBuf) begin(name spanName, parent int32) int32 {
	if b == nil {
		return -1
	}
	if parent < 0 {
		b.ops++
	}
	b.spans = append(b.spans, span{op: b.ops, parent: parent, name: name, start: time.Since(b.epoch).Nanoseconds()})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) {
	if b != nil {
		b.spans[i].end = time.Since(b.epoch).Nanoseconds()
	}
}

// reset drops what warm-up recorded.
func (b *spanBuf) reset() {
	*b = spanBuf{epoch: b.epoch, spans: b.spans[:0]}
}

// tracer owns the span buffers of one traced run; spans stay in memory
// until the run ends.
type tracer struct {
	epoch   time.Time
	clients []*spanBuf
	openNs  int64 // span around the latest storage.Open
}

// spanCapacity is the number of spans (32 bytes each) a tracer has room for
// before its buffers grow; about what a 10 s run records.
const spanCapacity = 1 << 19

func newTracer(clients int) *tracer {
	t := &tracer{epoch: time.Now(), clients: make([]*spanBuf, clients)}
	for i := range t.clients {
		t.clients[i] = &spanBuf{epoch: t.epoch, spans: make([]span, 0, spanCapacity/clients)}
	}
	return t
}

func (t *tracer) client(i int) *spanBuf { return t.clients[i] }

// selfTimes sums, per span name, each span's duration minus the part its
// children cover, over every client, in nanoseconds.
func (t *tracer) selfTimes() (self [numSpanNames]int64, ops int64) {
	for _, b := range t.clients {
		own := make([]int64, len(b.spans))
		for i, s := range b.spans {
			own[i] += s.end - s.start
			if s.parent >= 0 {
				own[s.parent] -= s.end - s.start
			}
		}
		for i, s := range b.spans {
			self[s.name] += own[i]
		}
		ops += int64(b.ops)
	}
	return self, ops
}

// writeSpans writes every client's spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for c, b := range t.clients {
		for i, s := range b.spans {
			fmt.Fprintf(w, `{"client":%d,"op":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				c, s.op, i, s.parent, spanLabels[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
