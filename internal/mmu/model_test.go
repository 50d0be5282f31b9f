package mmu

import (
	"math/rand"
	"testing"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
)

// TestModelBasedFuzz interleaves random OS operations (unmap, append,
// protect, distance changes, compaction, promotion, reselect) with
// translations on every scheme, checking each translation against the
// process's reference mapping. This is the whole-stack consistency
// check: whatever the OS does, the hardware must never return a stale or
// wrong frame.
func TestModelBasedFuzz(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(0xF0 + int64(s)))
			proc := osmem.NewProcess(s.Policy())
			var cl mem.ChunkList
			vpn := mem.VPN(0x10000)
			for i := 0; i < 24; i++ {
				pages := uint64(1 + r.Intn(2000))
				cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: mem.PFN(1<<22 + i<<14), Pages: pages})
				vpn += mem.VPN(pages + uint64(r.Intn(32)))
			}
			if err := proc.InstallChunks(cl, 0); err != nil {
				t.Fatal(err)
			}
			m := New(s, DefaultConfig(), proc)

			lo, hi := cl[0].StartVPN, vpn
			span := int64(hi - lo)
			freshPFN := mem.PFN(1) << 37
			for step := 0; step < 40000; step++ {
				v := lo + mem.VPN(r.Int63n(span))
				switch op := r.Intn(100); {
				case op < 90: // translate and verify
					res := m.Translate(v)
					want, mapped := proc.Translate(v)
					if mapped {
						if res.Outcome == OutFault {
							t.Fatalf("step %d: fault on mapped %#x", step, uint64(v))
						}
						if res.PFN != want {
							t.Fatalf("step %d: translate(%#x) = %#x, want %#x (outcome %v)",
								step, uint64(v), uint64(res.PFN), uint64(want), res.Outcome)
						}
					} else if res.Outcome != OutFault {
						t.Fatalf("step %d: unmapped %#x gave %v", step, uint64(v), res.Outcome)
					}
				case op < 93: // unmap a small region
					proc.UnmapRange(v, uint64(1+r.Intn(128)))
				case op < 96: // fresh allocation somewhere
					c := mem.Chunk{StartVPN: v, StartPFN: freshPFN, Pages: uint64(1 + r.Intn(128))}
					freshPFN += mem.PFN(c.Pages + 512)
					_ = proc.AppendChunk(c) // overlap rejections are fine
				case op < 97: // protection change
					if err := proc.SetProtection(v, uint64(1+r.Intn(64)), osmem.ProtRead); err != nil {
						t.Fatal(err)
					}
				case op < 98 && s.Policy().Anchors: // distance churn
					proc.Reselect(osmem.DefaultSweepCost)
				case op < 99: // promotion pass
					proc.PromoteHugePages()
				default: // compaction
					if _, err := proc.Compact(mem.PFN(1)<<38+mem.PFN(step)<<20, osmem.DefaultSweepCost); err != nil {
						t.Fatal(err)
					}
				}
			}
			if st := m.Stats(); st.Accesses == 0 {
				t.Fatal("fuzz performed no translations")
			}
		})
	}
}
