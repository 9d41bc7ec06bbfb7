package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintSrc runs collect+check over one synthetic source file.
func lintSrc(t *testing.T, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return check(collect(fset, f))
}

func TestCleanRegistrationsPass(t *testing.T) {
	diags := lintSrc(t, `package p
func m(reg *Registry) {
	reg.Counter("repro_txn_retries_total")
	reg.Gauge("repro_wal_flush_queue_depth")
	reg.Histogram("repro_wal_fsync_seconds")
	reg.Histogram("repro_checkpoint_bytes")
	reg.Histogram("repro_storage_epoch_txns_size")
	reg.Counter("repro_storage_cache_evictions_total")
	reg.Gauge("repro_storage_cache_occupancy")
	reg.Histogram("repro_storage_cache_fault_seconds")
}`)
	if len(diags) != 0 {
		t.Errorf("clean source flagged: %v", diags)
	}
}

func TestNamingViolations(t *testing.T) {
	for _, tc := range []struct {
		src, want string
	}{
		{`reg.Counter("repro_bogus_things_total")`, "does not match"},
		{`reg.Counter("repro_txn_retries")`, "must end in _total"},
		{`reg.Histogram("repro_wal_fsync")`, "must end in one of"},
		{`reg.Gauge("repro_wal_depth_total")`, "must not carry"},
		{`reg.Gauge("repro_wal_queue_seconds")`, "must not carry"},
		{`reg.Counter("repro_txn_Retries_total")`, "does not match"},
		{`reg.Counter("repro_cache_hits_total")`, "does not match"},
	} {
		diags := lintSrc(t, "package p\nfunc m(reg *Registry) { "+tc.src+" }")
		if len(diags) != 1 || !strings.Contains(diags[0], tc.want) {
			t.Errorf("%s: diags = %v, want one containing %q", tc.src, diags, tc.want)
		}
	}
}

func TestKindConflictAndDuplicates(t *testing.T) {
	diags := lintSrc(t, `package p
func a(reg *Registry) { reg.Counter("repro_txn_aborts_total") }
func b(reg *Registry) { reg.Gauge("repro_txn_aborts_total") }`)
	found := false
	for _, d := range diags {
		if strings.Contains(d, "registered as Gauge here but as Counter") {
			found = true
		}
	}
	if !found {
		t.Errorf("kind conflict not reported: %v", diags)
	}

	diags = lintSrc(t, `package p
func a(reg *Registry) { reg.Counter("repro_txn_aborts_total") }
func b(reg *Registry) { reg.Counter("repro_txn_aborts_total") }`)
	if len(diags) != 1 || !strings.Contains(diags[0], "already registered") {
		t.Errorf("duplicate not reported: %v", diags)
	}
}

func TestNonLiteralAndUnrelatedCallsIgnored(t *testing.T) {
	diags := lintSrc(t, `package p
func m(reg *Registry, name string) {
	reg.Counter(name)          // variable: runtime check covers it
	other.Counter()            // wrong arity
	fmt.Println("repro_x")     // not a registration
}`)
	if len(diags) != 0 {
		t.Errorf("unexpected diagnostics: %v", diags)
	}
}

// TestRepoIsClean runs the real walk over this repository, pinning that the
// committed registration sites satisfy the convention — the same invocation
// CI performs.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("repo root not found: %v", err)
	}
	diags, err := lintDirs([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("repository has obslint findings:\n%s", strings.Join(diags, "\n"))
	}
}
