// Package buildinfo derives a build-identity string from the binary's
// embedded module and VCS metadata. tlbserver, tlbsim and tlbload print
// it behind -version, so a served result, a simulation or a load report
// can be traced to the exact build that produced it.
package buildinfo

import (
	"runtime/debug"
	"strings"
)

// Version returns the build identity: the main module version, plus the
// VCS revision (and a ".dirty" marker for modified trees) when the
// binary was built from a checkout. Two binaries built from the same
// tree with the same toolchain report the same string.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	return fromBuildInfo(bi)
}

// fromBuildInfo is split out so tests can exercise the formatting
// without controlling the process's own build metadata.
func fromBuildInfo(bi *debug.BuildInfo) string {
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	// Newer toolchains stamp the revision (and a "+dirty" suffix) into
	// the module pseudo-version itself; only append what is missing so
	// the identity never repeats the same revision twice.
	if rev != "" && !strings.Contains(v, rev) {
		v += "+" + rev
		if dirty {
			v += ".dirty"
		}
	}
	// Defensive: -version prints the string as one line; strip anything
	// that could break a line-oriented consumer.
	return strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' || r == '"' {
			return '_'
		}
		return r
	}, v)
}
