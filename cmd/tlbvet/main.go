// Command tlbvet runs the project's custom static analyzers (see
// internal/lint): determinism, ctxflow, locksafe, closecheck, noprint,
// allocfree, lifecycle, and metriclint.
//
// It works two ways:
//
//	go run ./cmd/tlbvet ./...        # standalone, on package patterns
//	go vet -vettool=bin/tlbvet ./... # as a vet tool
//
// Both forms are equivalent: in standalone mode tlbvet re-executes
// itself through `go vet -vettool`, so the go command does the package
// loading and tlbvet only implements the unitchecker protocol. That
// keeps the binary free of any package-loading machinery and works
// without network access.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"hybridtlb/internal/lint"
)

func main() {
	// `go vet -vettool` invokes the tool with -V=full (version probe),
	// -flags (flag discovery), and finally a <unit>.cfg per package.
	// Anything else — package patterns like ./... — is standalone use.
	if unitProtocol(os.Args[1:]) {
		unitchecker.Main(lint.All()...) // does not return
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlbvet: cannot locate own binary:", err)
		os.Exit(2)
	}
	args := append([]string{"vet", "-vettool=" + self}, os.Args[1:]...)
	cmd := exec.Command("go", args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintln(os.Stderr, "tlbvet: go vet:", err)
		os.Exit(2)
	}
}

// unitProtocol reports whether the arguments look like the go
// command's vettool handshake rather than user-supplied package
// patterns.
func unitProtocol(args []string) bool {
	if len(args) == 0 {
		return false
	}
	for _, a := range args {
		if !strings.HasPrefix(a, "-") && !strings.HasSuffix(a, ".cfg") {
			return false
		}
	}
	return true
}
