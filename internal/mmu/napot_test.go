package mmu

import (
	"math/rand"
	"testing"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/tlb"
)

// TestAnchorNAPOTClosedForm checks the anchor scheme against a mapping
// whose results follow in closed form. RISC-V SVNAPOT maps 64 KiB as one
// run of 16 pages aligned to 16 in both VPN and PFN: an anchor at
// distance 16 with contiguity 16. The mapping here is built only from such
// runs, each 32 frames after the last so that no two are physically
// contiguous, and installed at a fixed distance of 16. Then every anchor
// reads contiguity 16, every translation is the page table's, and every
// L2 miss whose anchor is resident is a coalesced hit at the anchor's PFN
// plus the page's offset. The 256 anchors fit the L2, so the only walks
// are the first touch of each run.
func TestAnchorNAPOTClosedForm(t *testing.T) {
	const runs, run = 256, 16
	const baseVPN, basePFN = mem.VPN(0x10000), mem.PFN(1 << 22)
	var cl mem.ChunkList
	for i := 0; i < runs; i++ {
		cl = append(cl, mem.Chunk{StartVPN: baseVPN + mem.VPN(i*run), StartPFN: basePFN + mem.PFN(i*2*run), Pages: run})
	}
	proc, m := buildProc(t, Anchor, cl, run)
	if d, n := proc.AnchorDistance(), len(proc.Chunks()); d != run || n != runs {
		t.Fatalf("installed distance %d over %d chunks, want %d over %d", d, n, run, runs)
	}
	for i := 0; i < runs; i++ {
		avpn := baseVPN + mem.VPN(i*run)
		if c := proc.PageTable().AnchorContiguity(avpn, run); c != run {
			t.Fatalf("anchor %#x: contiguity %d, want %d", avpn, c, run)
		}
	}

	am := m.(*anchorMMU)
	order := rand.New(rand.NewSource(16)).Perm(runs * run)
	for pass := 1; pass <= 2; pass++ {
		for _, p := range order {
			v := baseVPN + mem.VPN(p)
			avpn := v.AlignDown(run)
			_, resident := am.l2.Peek(anchorSet(avpn, run, am.l2.SetMask()), tlb.Key(tlb.KindAnchor, uint64(avpn)))
			res := m.Translate(v)
			if want, _ := proc.Translate(v); res.PFN != want {
				t.Fatalf("pass %d: %#x translated to %#x, page table says %#x", pass, v, res.PFN, want)
			}
			if pass == 2 && !resident {
				t.Fatalf("pass 2: anchor %#x of %#x not resident", avpn, v)
			}
			l2Miss := res.Outcome != OutL1Hit && res.Outcome != OutL2Hit
			if resident && l2Miss {
				if want := basePFN + 2*mem.PFN(avpn-baseVPN) + mem.PFN(v-avpn); res.Outcome != OutCoalescedHit || res.PFN != want {
					t.Fatalf("pass %d: %#x with its anchor resident: outcome %v, PFN %#x; want a coalesced hit at %#x",
						pass, v, res.Outcome, res.PFN, want)
				}
			}
		}
	}
	if st := m.Stats(); st.Walks != runs || st.Faults != 0 || st.L2RegularHits != 0 {
		t.Errorf("%d walks, %d faults and %d regular L2 hits; want %d, 0 and 0", st.Walks, st.Faults, st.L2RegularHits, runs)
	}
}
