package main

import (
	"fmt"
	"runtime"

	"repro"
)

// workload is one set of inputs the benchmark runs. The five below are the
// benchmark's fixed workloads; later issues refer to them by name.
type workload struct {
	name string
	why  string

	kv      bool // kv point rewrites + scans instead of the order-entry mix
	rels    int  // ord relations (order entry only)
	rows    int  // preloaded rows per relation
	clients int  // closed-loop clients; 0 means GOMAXPROCS
	indexed bool // AutoIndex plus declared ord_s(id) indexes
	hotRows int  // shared rows of ord0 every client's bumps aim at

	durable         bool
	sync            repro.SyncPolicy
	checkpointBytes int64
	cacheBytes      int64

	warmOps int // untimed operations before the measured phase, all clients together
}

// maxProcs is the GOMAXPROCS every run is pinned to.
func maxProcs() int { return min(runtime.NumCPU(), 4) }

func workloads() []*workload {
	return []*workload{
		{
			name: "point_indexed",
			why:  "1 client, every access an index probe: per-transaction fixed costs (parse, modify, report, index derivation, GC) dominate",
			rels: 4, rows: 4000, clients: 1, indexed: true, warmOps: 4000,
		},
		{
			name: "scan_unindexed",
			why:  "same operations without indexes: delete-by-id scans 4000 rows and the referential check rebuilds a hash, so overlay execution dominates",
			rels: 4, rows: 4000, clients: 1, warmOps: 1500,
		},
		{
			name: "contended_mem",
			why:  "GOMAXPROCS clients, bumps aimed at 8 shared rows: validation conflicts, retries and merge commits do the work",
			rels: 4, rows: 4000, clients: 0, indexed: true, hotRows: 8, warmOps: 4000,
		},
		{
			name: "durable_group",
			why:  "8 clients on a SyncAlways log with 64 KiB checkpoints: WAL append, group fsync, checkpointing and recovery do the work",
			rels: 16, rows: 4000, clients: 8, indexed: true, warmOps: 2000,
			durable: true, sync: repro.SyncAlways, checkpointBytes: 64 << 10,
		},
		{
			name: "paged_rw",
			why:  "6 MiB of rows behind a 1 MiB node cache, Zipf rewrites of 64 hot keys plus rare scans of everything: stub faults, eviction and paged checkpoints do the work",
			kv:   true, rels: 1, rows: 40000, clients: 1, warmOps: 2000,
			durable: true, sync: repro.SyncOff, checkpointBytes: 512 << 10, cacheBytes: 1 << 20,
		},
	}
}

// scaled returns a copy of w with row counts and warm-up multiplied by f
// (the smoke test runs at 1 %) and the client count resolved.
func (w *workload) scaled(f float64) *workload {
	c := *w
	if c.clients == 0 {
		c.clients = maxProcs()
	}
	if f != 1 {
		// Keep enough rows for every client to own some and for a scan to fit.
		c.rows = max(int(float64(w.rows)*f), 40*c.clients, 4*kvScanRows)
		c.warmOps = max(int(float64(w.warmOps)*f), 20)
		if c.kv {
			// Warm-up must cover the opening rewrites of every hot key.
			c.warmOps = max(c.warmOps, 3*kvHotKeys)
		}
		if c.cacheBytes > 0 {
			c.cacheBytes = max(int64(float64(c.cacheBytes)*f), 16<<10)
			c.checkpointBytes = max(int64(float64(c.checkpointBytes)*f), 16<<10)
		}
	}
	return &c
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// relNames lists the relations the workload's operations write.
func (w *workload) relNames() []string {
	if w.kv {
		return []string{"kv"}
	}
	out := make([]string, w.rels)
	for s := range out {
		out[s] = ordName(s)
	}
	return out
}

// indexDecls are the declared indexes of an indexed workload.
func (w *workload) indexDecls() []string {
	if !w.indexed {
		return nil
	}
	out := make([]string, w.rels)
	for s := range out {
		out[s] = ordName(s) + "(id)"
	}
	return out
}

// defineRules declares the workload's constraints; it runs at every open,
// because the rule catalog is not part of the durable state.
func (w *workload) defineRules(e engine) error {
	if w.kv {
		return e.DefineConstraint("ver_nonneg", "forall x (x in kv implies x.ver >= 0)")
	}
	for s := 0; s < w.rels; s++ {
		ord := ordName(s)
		if err := e.DefineConstraint(refName(s),
			"forall x (x in "+ord+" implies exists y (y in item and x.item = y.id))"); err != nil {
			return err
		}
		if err := e.DefineConstraint(domName(s),
			"forall x (x in "+ord+" implies x.qty >= 0)"); err != nil {
			return err
		}
	}
	return nil
}

// populate creates and loads the relations of a fresh database.
func (w *workload) populate(e engine) error {
	if w.kv {
		if err := e.CreateRelation("relation kv(k int, ver int, v string)"); err != nil {
			return err
		}
		rows := make([][]any, w.rows)
		for k := range rows {
			rows[k] = []any{k, 0, string(appendPad(nil, int64(k)))}
		}
		return e.Load("kv", rows)
	}
	if err := e.CreateRelation("relation item(id int, name string)"); err != nil {
		return err
	}
	items := make([][]any, itemRows)
	for i := range items {
		items[i] = []any{i, "item" + fmt.Sprint(i)}
	}
	if err := e.Load("item", items); err != nil {
		return err
	}
	for s := 0; s < w.rels; s++ {
		if err := e.CreateRelation("relation " + ordName(s) + "(id int, item int, qty int)"); err != nil {
			return err
		}
		rows := make([][]any, w.rows)
		for i := range rows {
			r := preloadedOrd(s, int64(i))
			rows[i] = []any{r.id, r.item, r.qty}
		}
		if err := e.Load(ordName(s), rows); err != nil {
			return err
		}
	}
	return nil
}

// build brings a database to the state the measured phase starts from,
// short of warm-up: schema, load, rules and indexes, and for the paged
// workload a checkpoint and a reopen so the rows sit behind the node cache.
func (w *workload) build(open func(paged bool) (engine, error)) (engine, error) {
	e, err := open(false)
	if err != nil {
		return nil, err
	}
	if err := w.populate(e); err != nil {
		e.Close()
		return nil, err
	}
	if w.cacheBytes > 0 {
		if err := e.Checkpoint(); err != nil {
			e.Close()
			return nil, err
		}
		if err := e.Close(); err != nil {
			return nil, err
		}
		if e, err = open(true); err != nil {
			return nil, err
		}
	}
	if err := w.defineRules(e); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}
