package lint

import "strings"

// Module-path-prefix scope discovery. Earlier tlbvet versions kept a
// hand-maintained import-path list inside the determinism analyzer;
// every new package had to be appended by hand or it silently escaped
// the lint. Discovery inverts that: every package under the module is in
// scope by construction, and *exclusion* is the explicit, reviewable
// act — a package leaves the determinism scope only by appearing in
// the opt-out list below with a reason.
//
// Paths are matched in two spellings because the analyzers run in two
// harnesses: under `go vet` a package path is fully qualified
// ("hybridtlb/internal/sim"), while linttest fixtures use their
// testdata-relative path ("internal/sim") as the import path. Both
// normalize to the same module-relative form.

// modulePath is this module's import path (go.mod). The analyzers
// cannot see go.mod — unitchecker hands them one compilation unit at a
// time — so the prefix is pinned here.
const modulePath = "hybridtlb"

// defaultDeterminismOptOut lists module-relative path prefixes excluded
// from the determinism scope. Every entry needs a defensible reason:
//
//   - cmd/: binaries own wall-clock concerns (tickers, timeouts,
//     progress meters). Simulation determinism is enforced where the
//     results are produced, in the libraries beneath them.
//   - internal/server: HTTP service infrastructure — request-latency
//     histograms and journal timestamps legitimately read the wall
//     clock. Byte-identity of its *results* is enforced in the sweep
//     and sim layers it delegates to (and pinned by equivalence tests).
const defaultDeterminismOptOut = "cmd/,internal/server"

// moduleRelative maps a package path to its module-relative form, and
// reports whether the package belongs to this module at all. Fixture
// paths ("internal/sim", "cmd/x") are already module-relative.
func moduleRelative(path string) (string, bool) {
	switch {
	case path == modulePath:
		return ".", true
	case strings.HasPrefix(path, modulePath+"/"):
		return strings.TrimPrefix(path, modulePath+"/"), true
	case strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/"):
		return path, true
	}
	return "", false
}

// inScope implements discovery with an opt-out list: a module package
// is in scope unless an opt-out prefix matches. The list holds
// comma-separated module-relative path prefixes ("cmd/" excludes every
// binary).
func inScope(path, optOut string) bool {
	rel, ok := moduleRelative(path)
	if !ok {
		return false
	}
	return !hasListedPrefix(rel, optOut)
}

func hasListedPrefix(rel, list string) bool {
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if rel == p || rel == strings.TrimSuffix(p, "/") || strings.HasPrefix(rel, strings.TrimSuffix(p, "/")+"/") {
			return true
		}
	}
	return false
}
