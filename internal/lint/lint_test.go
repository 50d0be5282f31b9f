package lint_test

import (
	"strings"
	"testing"

	"hybridtlb/internal/lint"
	"hybridtlb/internal/lint/linttest"
)

// Each analyzer gets at least one fixture demonstrating caught
// violations and one demonstrating a clean pass.

func TestDeterminism(t *testing.T) {
	linttest.Run(t, lint.Determinism, "internal/sim")
}

// TestDeterminismSortedReportIdiom is the clean pass: the
// collect-and-sort pattern used by internal/report must not be flagged.
func TestDeterminismSortedReportIdiom(t *testing.T) {
	linttest.Run(t, lint.Determinism, "internal/report")
}

// TestDeterminismGatesPackages proves packages outside the module path
// are out of scope even when they contain would-be violations.
func TestDeterminismGatesPackages(t *testing.T) {
	linttest.Run(t, lint.Determinism, "plain")
}

// TestDeterminismCmdOptOut proves the cmd/ prefix opt-out: a binary
// reading the wall clock is not flagged.
func TestDeterminismCmdOptOut(t *testing.T) {
	linttest.Run(t, lint.Determinism, "cmd/clockmain")
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, lint.CtxFlow, "internal/ctxflow")
}

func TestCtxFlowMainExempt(t *testing.T) {
	linttest.Run(t, lint.CtxFlow, "ctxmain")
}

// TestCtxFlowScopeGates proves ctxflow shares the module-path scope:
// the non-module "plain" package detaches a context with no diagnostic.
func TestCtxFlowScopeGates(t *testing.T) {
	linttest.Run(t, lint.CtxFlow, "plain")
}

func TestLockSafe(t *testing.T) {
	linttest.Run(t, lint.LockSafe, "locksafe")
}

func TestCloseCheck(t *testing.T) {
	linttest.Run(t, lint.CloseCheck, "closecheck")
}

func TestNoPrint(t *testing.T) {
	linttest.Run(t, lint.NoPrint, "noprint")
}

func TestNoPrintMainExempt(t *testing.T) {
	linttest.Run(t, lint.NoPrint, "noprintmain")
}

func TestAllocFree(t *testing.T) {
	linttest.Run(t, lint.AllocFree, "allocfree")
}

func TestLifecycle(t *testing.T) {
	linttest.Run(t, lint.Lifecycle, "lifecycle")
}

func TestMetricLint(t *testing.T) {
	linttest.Run(t, lint.MetricLint, "metriclint")
}

// TestAll pins the analyzer roster: tlbvet ships the eight passes the
// project invariants document, with unique names and non-empty docs
// (unitchecker rejects analyzers without them).
func TestAll(t *testing.T) {
	all := lint.All()
	if len(all) < 8 {
		t.Fatalf("expected at least 8 analyzers, got %d", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing name, doc, or run function", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{
		"determinism", "ctxflow", "locksafe", "closecheck", "noprint",
		"allocfree", "lifecycle", "metriclint",
	} {
		if !seen[want] {
			t.Errorf("analyzer %q missing from lint.All()", want)
		}
	}
	// Doc first lines double as `tlbvet help` output; keep them tight.
	for _, a := range all {
		if first := strings.SplitN(a.Doc, "\n", 2)[0]; len(first) > 100 {
			t.Errorf("analyzer %q first doc line is %d chars; keep it under 100", a.Name, len(first))
		}
	}
}
