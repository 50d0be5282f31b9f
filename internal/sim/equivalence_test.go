package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
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
// Three configs outside the cross product ride along: the detailed walk
// model, a pinned anchor distance (no re-selection at all), and a
// 47-record trace shorter than one batch.
func TestBatchedSerialEquivalence(t *testing.T) {
	check := func(t *testing.T, cfg Config) {
		t.Helper()
		serial, _, err := run(cfg, Generated, nil, driveSerial)
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
	}
	for _, scheme := range mmu.All() {
		for _, scenario := range mapping.All() {
			t.Run(fmt.Sprintf("%s/%s", scheme, scenario), func(t *testing.T) {
				check(t, equivCfg(t, scheme, scenario, "mcf"))
			})
		}
	}
	t.Run("detailed-walk", func(t *testing.T) {
		cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
		cfg.DetailedWalk = true
		check(t, cfg)
	})
	t.Run("fixed-distance", func(t *testing.T) {
		cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
		cfg.FixedDistance = 8
		check(t, cfg)
	})
	t.Run("tiny-trace", func(t *testing.T) {
		cfg := equivCfg(t, mmu.Cluster, mapping.Low, "mcf")
		cfg.Accesses = 40
		cfg.WarmupAccesses = 7
		check(t, cfg)
	})
}

// shardedSource cuts a record stream into contiguous shards of size
// records. No ReadBatch call crosses a shard boundary, so every cut
// reaches the drive as a short read in the middle of the stream, which
// the BatchSource contract allows.
type shardedSource struct {
	src  trace.BatchSource
	size uint64
	pos  uint64
}

func (s *shardedSource) Next() (trace.Record, bool) {
	rec, ok := s.src.Next()
	if ok {
		s.pos++
	}
	return rec, ok
}

func (s *shardedSource) ReadBatch(dst []trace.Record) int {
	if left := s.size - s.pos%s.size; uint64(len(dst)) > left {
		dst = dst[:left]
	}
	n := s.src.ReadBatch(dst)
	s.pos += uint64(n)
	return n
}

// TestShardSerialEquivalence holds the batched drive to the serial
// reference when its source cuts the trace into k contiguous shards:
// for every shard count, scheme and scenario the Result must be
// byte-identical. The cuts land mid-batch and away from the warmup and
// epoch boundaries, so the warmup countdown and the epoch budget must
// carry across short reads exactly as they carry across full batches.
func TestShardSerialEquivalence(t *testing.T) {
	for _, shards := range []uint64{2, 4, 8} {
		driveShards := func(m mmu.MMU, proc *osmem.Process, src trace.Source, cfg Config, churn *churner, res *Result) error {
			size := (cfg.WarmupAccesses + cfg.Accesses + shards - 1) / shards
			return drive(m, proc, &shardedSource{src: trace.Batched(src), size: size}, cfg, churn, res)
		}
		for _, scheme := range mmu.All() {
			for _, scenario := range mapping.All() {
				t.Run(fmt.Sprintf("k%d/%s/%s", shards, scheme, scenario), func(t *testing.T) {
					cfg := equivCfg(t, scheme, scenario, "mcf")
					serial, _, err := run(cfg, Generated, nil, driveSerial)
					if err != nil {
						t.Fatal(err)
					}
					sharded, _, err := run(cfg, Generated, nil, driveShards)
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

// TestBatchedSerialEquivalenceMultiRegion covers the per-region anchor
// distance extension, where DistanceAt varies across the footprint.
func TestBatchedSerialEquivalenceMultiRegion(t *testing.T) {
	for _, scenario := range mapping.All() {
		t.Run(scenario.String(), func(t *testing.T) {
			cfg := equivCfg(t, mmu.Anchor, scenario, "mcf")
			cfg.MultiRegionAnchors = true
			serial, _, err := run(cfg, Generated, nil, driveSerial)
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

// TestBatchedSerialEquivalenceReplay proves the replay path matches the
// serial replay record for record, for both trace encodings: the varint
// stream (a trace.Reader decoding into each batch) and the fixed-width
// HTLBTRB2 image (a trace.Bin copying batches out of its record view).
func TestBatchedSerialEquivalenceReplay(t *testing.T) {
	spec, err := workload.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.Collect(spec.NewGenerator(0x4000, 1<<12, 6_000, 7), 0)

	var varint bytes.Buffer
	vw, err := trace.NewWriter(&varint)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	bw, err := trace.NewBinWriter(&bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := vw.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := vw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}

	encodings := []struct {
		name string
		open func() (trace.Source, error)
	}{
		{"varint", func() (trace.Source, error) { return trace.NewReader(bytes.NewReader(varint.Bytes())) }},
		{"bin", func() (trace.Source, error) { return trace.NewBin(bin.Bytes()) }},
	}
	for _, scheme := range []mmu.Scheme{mmu.Base, mmu.Anchor, mmu.CoLT} {
		t.Run(scheme.String(), func(t *testing.T) {
			for _, enc := range encodings {
				t.Run(enc.name, func(t *testing.T) {
					cfg := equivCfg(t, scheme, mapping.Medium, "gups")
					cfg.Accesses = 5_000 // replay bounds: warmup 500 + 5000 measured

					serialSrc, err := enc.open()
					if err != nil {
						t.Fatal(err)
					}
					serial, err := runTrace(cfg, serialSrc, driveSerial)
					if err != nil {
						t.Fatal(err)
					}
					batchedSrc, err := enc.open()
					if err != nil {
						t.Fatal(err)
					}
					batched, err := RunTrace(cfg, batchedSrc)
					if err != nil {
						t.Fatal(err)
					}
					for _, src := range []trace.Source{serialSrc, batchedSrc} {
						if e, ok := src.(interface{ Err() error }); ok && e.Err() != nil {
							t.Fatalf("reader error: %v", e.Err())
						}
					}
					if !reflect.DeepEqual(serial, batched) {
						t.Errorf("replay diverged:\nserial:  %+v\nbatched: %+v", serial, batched)
					}
				})
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
			serial, _, err := run(cfg, Generated, nil, driveSerial)
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

// TestWarmupOnBatchBoundary exercises the corner where the warmup
// boundary lands exactly on a batch edge and where warmup exceeds one
// batch, both of which take different paths through the segment slicer,
// plus warmups equal to and longer than the measured run.
func TestWarmupOnBatchBoundary(t *testing.T) {
	const total = 3 * batchRecords
	for _, warm := range []uint64{batchRecords, batchRecords + 1, 2*batchRecords + 17, 1, total, total + 100} {
		t.Run(fmt.Sprintf("warm=%d", warm), func(t *testing.T) {
			cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "gups")
			cfg.Accesses = total
			cfg.WarmupAccesses = warm
			serial, _, err := run(cfg, Generated, nil, driveSerial)
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

// warmupInstructions is the instructions cfg's trace retires through its
// last warmup record.
func warmupInstructions(t testing.TB, cfg Config) uint64 {
	t.Helper()
	cfg = cfg.withDefaults()
	cl, err := MappingOf(cfg).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, rec := range trace.Collect(TraceOf(cfg, cl[0].StartVPN).Generate(), cfg.WarmupAccesses) {
		n += uint64(rec.Instrs)
	}
	return n
}

// mappingSpan is the virtual span of cfg's mapping, the span churn
// remaps within.
func mappingSpan(t testing.TB, cfg Config) uint64 {
	t.Helper()
	cl, err := MappingOf(cfg).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return uint64(cl[len(cl)-1].EndVPN() - cl[0].StartVPN)
}

// TestBatchedSerialEquivalenceChurn holds churn runs on the batched drive
// to driveSerial with the same churn step, for the four schemes the churn
// experiment runs, with a probe attached to both. The corners are where a
// churn boundary meets the others: the first churn op lands on the
// warmup boundary; churn and epoch cross on the same records; warmup,
// churn and epoch all fall on one record; single records retire more
// instructions than the whole interval; and the span is no larger than
// one region, so every op is a no-op that must leave the run equal to a
// run without churn.
func TestBatchedSerialEquivalenceChurn(t *testing.T) {
	for _, scheme := range []mmu.Scheme{mmu.THP, mmu.Cluster2M, mmu.RMM, mmu.Anchor} {
		base := equivCfg(t, scheme, mapping.Medium, "mcf")
		warm := warmupInstructions(t, base)
		corners := []struct {
			name                   string
			interval, pages, epoch uint64
			accesses               uint64
		}{
			{"warmup-boundary", warm, 64, 0, 0},
			{"with-epoch", base.EpochInstructions, 64, 0, 0},
			{"warmup-epoch-churn", warm, 64, warm, 0},
			// mcf retires 1 to 7 instructions per access.
			{"record-crosses-interval", 4, 16, 301, 200},
			{"span-at-most-pages", 700, mappingSpan(t, base), 0, 0},
		}
		for _, c := range corners {
			t.Run(fmt.Sprintf("%s/%s", scheme, c.name), func(t *testing.T) {
				cfg := ChurnConfig{Config: base, ChurnIntervalInstructions: c.interval, ChurnPages: c.pages}
				if c.epoch != 0 {
					cfg.EpochInstructions = c.epoch
				}
				if c.accesses != 0 {
					cfg.Accesses, cfg.WarmupAccesses = c.accesses, 0
				}
				var serialSamples, batchedSamples []ProbeSample
				cfg.Probe = func(s ProbeSample) { serialSamples = append(serialSamples, s) }
				serial, serialChurn, err := run(cfg.Config, Generated, &cfg, driveSerial)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Probe = func(s ProbeSample) { batchedSamples = append(batchedSamples, s) }
				batched, batchedChurn, err := RunWithChurn(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, batched) || serialChurn != batchedChurn {
					t.Errorf("batched churn run diverged from serial:\nserial:  %+v %+v\nbatched: %+v %+v",
						serial, serialChurn, batched, batchedChurn)
				}
				if len(serialSamples) == 0 || !reflect.DeepEqual(serialSamples, batchedSamples) {
					t.Errorf("probe samples diverged or never fired: %d serial, %d batched", len(serialSamples), len(batchedSamples))
				}
				if batched.AnchorActions != nil {
					t.Errorf("churn result carries anchor actions %v", batched.AnchorActions)
				}
				if c.pages < mappingSpan(t, base) {
					if batchedChurn.Operations == 0 {
						t.Fatal("no churn operation fired")
					}
					return
				}
				plain, err := Run(cfg.Config)
				if err != nil {
					t.Fatal(err)
				}
				if batchedChurn.Operations != 0 || batched.Stats != plain.Stats || batched.Instructions != plain.Instructions {
					t.Errorf("no-op churn changed the run: %d ops, stats %+v, want %+v", batchedChurn.Operations, batched.Stats, plain.Stats)
				}
			})
		}
	}
}
