package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// defaultSeed is the seed digests.json records outputs at.
const defaultSeed = 42

// committedDigests is digests.json: per workload, the digest of every
// checked output at defaultSeed and benchScale. Re-record it from the
// "digest" lines a run prints whenever a change is meant to alter
// outputs.
//
//go:embed digests.json
var committedDigests []byte

// expectedDigests returns the committed digests of a workload's outputs
// at the default seed (empty when none are committed, so every output
// fails), and nil at any other seed.
func expectedDigests(workload string, seed int64) (map[string]string, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(committedDigests, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if all[workload] == nil {
		return map[string]string{}, nil
	}
	return all[workload], nil
}

// digestBytes is the hex SHA-256 of b.
func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestOf hashes v's JSON encoding. encoding/json writes struct fields
// in declaration order and map keys sorted, so equal values hash
// equally.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "error: " + err.Error()
	}
	return digestBytes(b)
}

// badOutputs lists, sorted, the outputs in got that recorded an error or
// differ from want, and the outputs want expects that got lacks. A nil
// want checks for errors only.
func badOutputs(want, got map[string]string) []string {
	var bad []string
	for name, d := range got {
		if strings.HasPrefix(d, "error: ") || (want != nil && want[name] != d) {
			bad = append(bad, name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// failedSims counts the simulations behind r's bad outputs.
func failedSims(want map[string]string, r repResult) int {
	n := 0
	for _, name := range badOutputs(want, r.digests) {
		n += max(r.outputSims[name], 1)
	}
	return n
}

// printDigests prints every checked output's digest, so runs at a seed
// without committed digests can be compared across builds.
func printDigests(in inputs, digests map[string]string) {
	names := make([]string, 0, len(digests))
	for name := range digests {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("digest %s seed=%d %s %s\n", in.workload, in.seed, name, digests[name])
	}
}
