package lint

import "testing"

func TestModuleRelative(t *testing.T) {
	cases := []struct {
		path string
		rel  string
		ok   bool
	}{
		{"hybridtlb", ".", true},
		{"hybridtlb/internal/sim", "internal/sim", true},
		{"hybridtlb/cmd/tlbsim", "cmd/tlbsim", true},
		// linttest fixtures use their testdata-relative path as the
		// import path; the bare spellings are module-relative already.
		{"internal/sim", "internal/sim", true},
		{"cmd/clockmain", "cmd/clockmain", true},
		// Foreign packages are never in scope.
		{"fmt", "", false},
		{"plain", "", false},
		{"hybridtlbx/internal/sim", "", false},
	}
	for _, c := range cases {
		rel, ok := moduleRelative(c.path)
		if rel != c.rel || ok != c.ok {
			t.Errorf("moduleRelative(%q) = (%q, %v), want (%q, %v)", c.path, rel, ok, c.rel, c.ok)
		}
	}
}

func TestInScope(t *testing.T) {
	const optOut = defaultDeterminismOptOut // "cmd/,internal/server"
	cases := []struct {
		path string
		want bool
	}{
		// Discovery: every module package is in scope by construction.
		{"hybridtlb", true},
		{"hybridtlb/internal/sim", true},
		{"hybridtlb/internal/persist", true},
		{"hybridtlb/internal/lint", true}, // dogfooding: the linter lints itself
		// Opt-out by prefix, with and without trailing slash semantics.
		{"hybridtlb/cmd/tlbsim", false},
		{"hybridtlb/internal/server", false},
		// A package merely sharing the prefix string is not excluded.
		{"hybridtlb/internal/serverutil", true},
		// Fixture spellings behave identically.
		{"internal/sim", true},
		{"cmd/clockmain", false},
		{"plain", false},
	}
	for _, c := range cases {
		if got := inScope(c.path, optOut); got != c.want {
			t.Errorf("inScope(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestHasListedPrefix(t *testing.T) {
	cases := []struct {
		rel, list string
		want      bool
	}{
		{"cmd/tlbsim", "cmd/", true},
		{"cmd", "cmd/", true},
		{"cmdx", "cmd/", false},
		{"internal/server", "cmd/,internal/server", true},
		{"internal/server/sub", "internal/server", true},
		{"internal/serverutil", "internal/server", false},
		{"internal/sim", "", false},
		{"internal/sim", " internal/sim ", true},
	}
	for _, c := range cases {
		if got := hasListedPrefix(c.rel, c.list); got != c.want {
			t.Errorf("hasListedPrefix(%q, %q) = %v, want %v", c.rel, c.list, got, c.want)
		}
	}
}
