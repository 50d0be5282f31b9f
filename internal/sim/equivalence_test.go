package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

// equivCfg builds a small config whose boundaries deliberately avoid
// batch alignment: warmup ends mid-batch (499 accesses) and the epoch
// period is short enough that dynamic re-selection fires many times per
// run, so any drift between the batched drive's segment slicing and the
// serial per-record checks shows up.
func equivCfg(t testing.TB, scheme mmu.Scheme, scenario mapping.Scenario, wl string) Config {
	spec, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Scheme:            scheme,
		Workload:          spec,
		Scenario:          scenario,
		FootprintPages:    1 << 12,
		Accesses:          4_999,
		Seed:              42,
		EpochInstructions: 1_500,
	}
}

// TestBatchedSerialEquivalence is the cross-product golden test: every
// scheme over every scenario must produce a byte-identical Result —
// Stats, AnchorActions, final anchor distance, everything — through the
// batched TranslateBatch pipeline and the record-at-a-time reference.
func TestBatchedSerialEquivalence(t *testing.T) {
	for _, scheme := range mmu.All() {
		for _, scenario := range mapping.All() {
			t.Run(fmt.Sprintf("%s/%s", scheme, scenario), func(t *testing.T) {
				cfg := equivCfg(t, scheme, scenario, "mcf")
				serial, err := run(cfg, MappingSpec.Generate, driveSerial)
				if err != nil {
					t.Fatal(err)
				}
				batched, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, batched) {
					t.Errorf("batched result diverged from serial:\nserial:  %+v\nbatched: %+v", serial, batched)
				}
			})
		}
	}
}

// TestBatchedSerialEquivalenceMultiRegion covers the per-region anchor
// distance extension, where DistanceAt varies across the footprint.
func TestBatchedSerialEquivalenceMultiRegion(t *testing.T) {
	for _, scenario := range mapping.All() {
		t.Run(scenario.String(), func(t *testing.T) {
			cfg := equivCfg(t, mmu.Anchor, scenario, "mcf")
			cfg.MultiRegionAnchors = true
			serial, err := run(cfg, MappingSpec.Generate, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("batched result diverged from serial:\nserial:  %+v\nbatched: %+v", serial, batched)
			}
		})
	}
}

// TestBatchedSerialEquivalenceReplay proves the replay path (which feeds
// a trace.Reader's native ReadBatch into the drive) matches the serial
// replay record for record.
func TestBatchedSerialEquivalenceReplay(t *testing.T) {
	spec, err := workload.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	gen := spec.NewGenerator(0x4000, 1<<12, 6_000, 7)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	for _, scheme := range []mmu.Scheme{mmu.Base, mmu.Anchor, mmu.CoLT} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := equivCfg(t, scheme, mapping.Medium, "gups")
			cfg.Accesses = 5_000 // replay bounds: warmup 500 + 5000 measured

			serialR, err := trace.NewReader(bytes.NewReader(encoded))
			if err != nil {
				t.Fatal(err)
			}
			serial, err := runTrace(cfg, serialR, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			batchedR, err := trace.NewReader(bytes.NewReader(encoded))
			if err != nil {
				t.Fatal(err)
			}
			batched, err := RunTrace(cfg, batchedR)
			if err != nil {
				t.Fatal(err)
			}
			if serialR.Err() != nil || batchedR.Err() != nil {
				t.Fatalf("reader errors: serial %v, batched %v", serialR.Err(), batchedR.Err())
			}
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("replay diverged:\nserial:  %+v\nbatched: %+v", serial, batched)
			}
		})
	}
}

// TestProbeEquivalence pins the Probe hook to the same firing points on
// both drive paths: same epochs, same instruction counts, same stats
// snapshots, same anchor distances — and identical final results whether
// or not a probe is attached (observation must be free).
func TestProbeEquivalence(t *testing.T) {
	for _, scheme := range []mmu.Scheme{mmu.Anchor, mmu.Base} {
		t.Run(scheme.String(), func(t *testing.T) {
			base := equivCfg(t, scheme, mapping.Low, "mcf")

			plain, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}

			var serialSamples, batchedSamples []ProbeSample
			cfg := base
			cfg.Probe = func(s ProbeSample) { serialSamples = append(serialSamples, s) }
			serial, err := run(cfg, MappingSpec.Generate, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Probe = func(s ProbeSample) { batchedSamples = append(batchedSamples, s) }
			batched, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			if len(serialSamples) == 0 {
				t.Fatal("probe never fired; epoch period too long for the test trace")
			}
			if !reflect.DeepEqual(serialSamples, batchedSamples) {
				t.Errorf("probe samples diverged:\nserial:  %+v\nbatched: %+v", serialSamples, batchedSamples)
			}
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("results with probe diverged:\nserial:  %+v\nbatched: %+v", serial, batched)
			}
			if !reflect.DeepEqual(plain, batched) {
				t.Errorf("attaching a probe changed the result:\nplain:  %+v\nprobed: %+v", plain, batched)
			}
		})
	}
}

// TestShardSerialEquivalence is the shard-parallel golden test: for every
// shard count, scheme, and scenario, the shard engine's fixpoint replay
// must reproduce the serial reference byte for byte — Stats,
// AnchorActions, final anchor distance, OS counters, everything. Run
// under -race in CI: the shards genuinely execute in parallel.
func TestShardSerialEquivalence(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		for _, scheme := range mmu.All() {
			for _, scenario := range mapping.All() {
				t.Run(fmt.Sprintf("k%d/%s/%s", shards, scheme, scenario), func(t *testing.T) {
					cfg := equivCfg(t, scheme, scenario, "mcf")
					serial, err := run(cfg, MappingSpec.Generate, driveSerial)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Shards = shards
					sharded, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(serial, sharded) {
						t.Errorf("sharded result diverged from serial:\nserial:  %+v\nsharded: %+v", serial, sharded)
					}
				})
			}
		}
	}
}

// TestShardSerialEquivalenceMultiRegion holds the shard engine against
// the per-region anchor distance extension, where re-selection sweeps
// different distances across the footprint.
func TestShardSerialEquivalenceMultiRegion(t *testing.T) {
	for _, scenario := range mapping.All() {
		t.Run(scenario.String(), func(t *testing.T) {
			cfg := equivCfg(t, mmu.Anchor, scenario, "mcf")
			cfg.MultiRegionAnchors = true
			serial, err := run(cfg, MappingSpec.Generate, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 4
			sharded, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, sharded) {
				t.Errorf("sharded result diverged from serial:\nserial:  %+v\nsharded: %+v", serial, sharded)
			}
		})
	}
}

// TestShardFixedDistance covers the static-anchor configuration: no
// dynamic re-selection, so no epoch boundaries unless a probe asks for
// them — segment cuts fall on raw record positions.
func TestShardFixedDistance(t *testing.T) {
	cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	cfg.FixedDistance = 8
	serial, err := run(cfg, MappingSpec.Generate, driveSerial)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	sharded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		t.Errorf("fixed-distance sharded diverged:\nserial:  %+v\nsharded: %+v", serial, sharded)
	}
}

// TestShardProbeEquivalence pins probe delivery: shard completion order
// is nondeterministic, but samples must arrive in epoch order with the
// exact cumulative stats, instruction counts, and distances the serial
// drive reports — and attaching a probe must not change the result.
func TestShardProbeEquivalence(t *testing.T) {
	for _, scheme := range []mmu.Scheme{mmu.Anchor, mmu.Base} {
		t.Run(scheme.String(), func(t *testing.T) {
			base := equivCfg(t, scheme, mapping.Low, "mcf")
			base.Shards = 4

			plain, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}

			var serialSamples, shardedSamples []ProbeSample
			cfg := base
			cfg.Shards = 0
			cfg.Probe = func(s ProbeSample) { serialSamples = append(serialSamples, s) }
			serial, err := run(cfg, MappingSpec.Generate, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 4
			cfg.Probe = func(s ProbeSample) { shardedSamples = append(shardedSamples, s) }
			sharded, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			if len(serialSamples) == 0 {
				t.Fatal("probe never fired; epoch period too long for the test trace")
			}
			if !reflect.DeepEqual(serialSamples, shardedSamples) {
				t.Errorf("probe samples diverged:\nserial:  %+v\nsharded: %+v", serialSamples, shardedSamples)
			}
			if !reflect.DeepEqual(serial, sharded) {
				t.Errorf("results with probe diverged:\nserial:  %+v\nsharded: %+v", serial, sharded)
			}
			if !reflect.DeepEqual(plain, sharded) {
				t.Errorf("attaching a probe changed the sharded result:\nplain:  %+v\nprobed: %+v", plain, sharded)
			}
		})
	}
}

// TestShardWarmupEdges exercises the mandatory warmup cut: mid-segment
// positions, warmup consuming the whole trace, and warmup exceeding it
// (the serial drive then never snapshots).
func TestShardWarmupEdges(t *testing.T) {
	total := uint64(3 * batchRecords)
	for _, warm := range []uint64{1, batchRecords, batchRecords + 1, 2*batchRecords + 17, total, total + 100} {
		t.Run(fmt.Sprintf("warm=%d", warm), func(t *testing.T) {
			cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "gups")
			cfg.Accesses = total
			cfg.WarmupAccesses = warm
			serial, err := run(cfg, MappingSpec.Generate, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 4
			sharded, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, sharded) {
				t.Errorf("warmup=%d sharded diverged:\nserial:  %+v\nsharded: %+v", warm, serial, sharded)
			}
		})
	}
}

// TestShardReplayBinTrace drives the shard engine from the binary trace
// layer end to end: records encoded with BinWriter, reopened as a
// zero-copy Bin view, replayed sharded, and held against the serial
// replay of the same stream.
func TestShardReplayBinTrace(t *testing.T) {
	spec, err := workload.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	gen := spec.NewGenerator(0x4000, 1<<12, 6_000, 7)
	var buf bytes.Buffer
	w, err := trace.NewBinWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	for _, scheme := range []mmu.Scheme{mmu.Base, mmu.Anchor, mmu.CoLT} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := equivCfg(t, scheme, mapping.Medium, "gups")
			cfg.Accesses = 5_000

			serialB, err := trace.NewBin(encoded)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := runTrace(cfg, serialB, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			shardedB, err := trace.NewBin(encoded)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 4
			sharded, err := RunTrace(cfg, shardedB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, sharded) {
				t.Errorf("bin replay diverged:\nserial:  %+v\nsharded: %+v", serial, sharded)
			}
		})
	}
}

// TestShardFallbacks pins the configurations the shard engine must
// decline: a detailed walk model (shared mutable walk state) and shard
// counts the trace cannot fill. Both must silently produce the serial
// drive's exact result.
func TestShardFallbacks(t *testing.T) {
	t.Run("detailed-walk", func(t *testing.T) {
		cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
		cfg.DetailedWalk = true
		serial, err := run(cfg, MappingSpec.Generate, driveSerial)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = 4
		sharded, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, sharded) {
			t.Errorf("detailed-walk fallback diverged:\nserial:  %+v\nsharded: %+v", serial, sharded)
		}
	})
	t.Run("tiny-trace", func(t *testing.T) {
		cfg := equivCfg(t, mmu.Cluster, mapping.Low, "mcf")
		cfg.Accesses = 40
		cfg.WarmupAccesses = 7
		serial, err := run(cfg, MappingSpec.Generate, driveSerial)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = 64
		sharded, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, sharded) {
			t.Errorf("tiny-trace fallback diverged:\nserial:  %+v\nsharded: %+v", serial, sharded)
		}
	})
}

// TestWarmupOnBatchBoundary exercises the corner where the warmup
// boundary lands exactly on a batch edge and where warmup exceeds one
// batch, both of which take different paths through the segment slicer.
func TestWarmupOnBatchBoundary(t *testing.T) {
	for _, warm := range []uint64{batchRecords, batchRecords + 1, 2*batchRecords + 17, 1} {
		t.Run(fmt.Sprintf("warm=%d", warm), func(t *testing.T) {
			cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "gups")
			cfg.Accesses = 3 * batchRecords
			cfg.WarmupAccesses = warm
			serial, err := run(cfg, MappingSpec.Generate, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("warmup=%d diverged:\nserial:  %+v\nbatched: %+v", warm, serial, batched)
			}
		})
	}
}
