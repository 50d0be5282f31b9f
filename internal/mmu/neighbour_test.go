package mmu

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/pagetable"
	"hybridtlb/internal/tlb"
)

// refDiscoverRun is colt-fa's run discovery as a page-table walk from the
// root for every neighbour: forward while the 4 KiB mappings stay
// physically contiguous, then backward with the remaining budget, up to
// maxPages pages. discoverRun must return the same run from the chunk
// list.
func refDiscoverRun(pt *pagetable.Table, vpn mem.VPN, pfn mem.PFN, maxPages uint64) tlb.RangeEntry {
	start, startPFN := vpn, pfn
	var length uint64 = 1
	end := vpn + 1
	endPFN := pfn + 1
	for length < maxPages {
		w := pt.Walk(end)
		if !w.Present || w.Class != mem.Class4K || w.PFN != endPFN {
			break
		}
		end++
		endPFN++
		length++
	}
	for length < maxPages && start > 0 {
		w := pt.Walk(start - 1)
		if !w.Present || w.Class != mem.Class4K || w.PFN != startPFN-1 {
			break
		}
		start--
		startPFN--
		length++
	}
	return tlb.RangeEntry{StartVPN: start, StartPFN: startPFN, Pages: length}
}

// refScanBlock is the cluster/CoLT block bitmap as one page-table walk
// per block page. scanBlock must return the same bitmap from one PTE
// line.
func refScanBlock(pt *pagetable.Table, vpn mem.VPN, pfn mem.PFN) (base mem.VPN, pfnBase mem.PFN, bitmap uint8) {
	base = vpn.AlignDown(clusterBlock)
	pfnBase = pfn - mem.PFN(vpn-base)
	for off := mem.VPN(0); off < clusterBlock; off++ {
		w := pt.Walk(base + off)
		if w.Present && w.Class == mem.Class4K && w.PFN == pfnBase+mem.PFN(off) {
			bitmap |= 1 << uint(off)
		}
	}
	return base, pfnBase, bitmap
}

// oracleChunks builds a random mapping for the neighbour oracle. Chunk
// sizes straddle colt-fa's default 256-page cap (1-8, up to 300, up to
// 1200 pages, and some 2 MiB-congruent 1024-2048-page chunks that THP
// promotes); neighbours are virtually adjacent but physically broken,
// adjacent in both spaces (install must coalesce them), or separated by
// a virtual hole. fromZero maps VPN 0 to PFN 0, where an empty PTE reads
// as frame 0 and a backward walk would wrap.
func oracleChunks(r *rand.Rand, n int, fromZero bool) mem.ChunkList {
	vpn, pfn := mem.VPN(0), mem.PFN(0)
	if !fromZero {
		vpn, pfn = mem.VPN(1+r.Intn(64))<<9, 1<<24
	}
	var cl mem.ChunkList
	for i := 0; i < n; i++ {
		var pages uint64
		huge := false
		switch r.Intn(8) {
		case 0, 1, 2:
			pages = uint64(1 + r.Intn(8))
		case 3, 4:
			pages = uint64(1 + r.Intn(300))
		case 5, 6:
			pages = uint64(257 + r.Intn(944))
		default:
			pages = uint64(1024 + r.Intn(1025))
			huge = true
		}
		switch {
		case i == 0: // the first chunk keeps its start
		case r.Intn(3) == 0: // physically broken, virtually adjacent
			pfn += mem.PFN(1 + r.Intn(64))
		case r.Intn(2) == 0: // contiguous in both spaces: coalesced on install
		default: // a virtual hole, frames jump
			vpn += mem.VPN(1 + r.Intn(64))
			pfn += mem.PFN(512 + r.Intn(4096))
		}
		if huge {
			// 2 MiB congruence so THP can promote the aligned interior.
			pfn = (pfn + mem.PFN(mem.PagesPer2M)).AlignDown(mem.PagesPer2M) + mem.PFN(uint64(vpn)%mem.PagesPer2M)
		}
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: pfn, Pages: pages})
		vpn += mem.VPN(pages)
		pfn += mem.PFN(pages)
	}
	return cl
}

// neighbourOracle drives one MMU and, on every miss, diffs the neighbour
// discovery the MMU uses against the walk-based references.
type neighbourOracle struct {
	t        *testing.T
	r        *rand.Rand
	proc     *osmem.Process
	m        MMU
	maxPages uint64
	checked  int
}

// drive translates random VPNs across the mapped span (plus a margin of
// unmapped pages) and checks every walk, then checks the first and last
// page of every chunk, where runs and blocks are cut.
func (o *neighbourOracle) drive(stage string, accesses int) {
	o.t.Helper()
	cl := o.proc.Chunks()
	if len(cl) == 0 {
		o.t.Fatalf("%s: empty mapping", stage)
	}
	checkMaximal(o.t, stage, cl)
	lo, hi := cl[0].StartVPN, cl[len(cl)-1].EndVPN()+16
	if lo >= 16 {
		lo -= 16
	}
	for i := 0; i < accesses; i++ {
		vpn := lo + mem.VPN(o.r.Int63n(int64(hi-lo)))
		if res := o.m.Translate(vpn); res.Outcome == OutWalk {
			o.check(stage, vpn, res.PFN)
		}
	}
	for _, c := range cl {
		for _, vpn := range []mem.VPN{c.StartVPN, c.EndVPN() - 1} {
			if w := o.proc.PageTable().Walk(vpn); w.Present {
				o.check(stage, vpn, w.PFN)
			}
		}
	}
}

func (o *neighbourOracle) check(stage string, vpn mem.VPN, pfn mem.PFN) {
	o.t.Helper()
	o.checked++
	pt := o.proc.PageTable()
	if fa, ok := o.m.(*coltfaMMU); ok {
		got := fa.discoverRun(vpn, pfn)
		if want := refDiscoverRun(pt, vpn, pfn, o.maxPages); got != want {
			o.t.Fatalf("%s: run at vpn %#x = %+v, walk reference %+v", stage, uint64(vpn), got, want)
		}
		return
	}
	gb, gp, gbits := scanBlock(o.proc, vpn, pfn)
	wb, wp, wbits := refScanBlock(pt, vpn, pfn)
	if gb != wb || gp != wp || gbits != wbits {
		o.t.Fatalf("%s: block at vpn %#x = (%#x, %#x, %08b), walk reference (%#x, %#x, %08b)",
			stage, uint64(vpn), uint64(gb), uint64(gp), gbits, uint64(wb), uint64(wp), wbits)
	}
}

// checkMaximal asserts the chunk-list invariant colt-fa's run extent
// relies on: no two neighbours are contiguous in both address spaces.
func checkMaximal(t *testing.T, stage string, cl mem.ChunkList) {
	t.Helper()
	for i := 1; i < len(cl); i++ {
		if cl[i].StartVPN == cl[i-1].EndVPN() && cl[i].StartPFN == cl[i-1].EndPFN() {
			t.Fatalf("%s: chunks %v and %v are one run but not coalesced", stage, cl[i-1], cl[i])
		}
	}
}

// TestNeighbourDiscoveryMatchesWalk is the reference oracle for fill-time
// neighbour discovery: colt-fa's run extents (from the chunk list) and the
// cluster, cluster-2mb and CoLT block bitmaps (from one PTE line) must
// equal the old per-neighbour page walks on every miss, across random
// mappings, colt-fa caps of 1, 2, 256 and beyond any chunk, and after
// unmaps, appends (one physically continuing its left neighbour),
// protection changes and compaction.
func TestNeighbourDiscoveryMatchesWalk(t *testing.T) {
	const accesses = 1500
	for seed := int64(1); seed <= 3; seed++ {
		cl := oracleChunks(rand.New(rand.NewSource(seed)), 40, seed == 1)
		for _, s := range []Scheme{CoLTFA, Cluster, Cluster2M, CoLT} {
			caps := []uint64{DefaultConfig().CoLTFAMaxPages}
			if s == CoLTFA {
				caps = []uint64{1, 2, 256, 1 << 20}
			}
			for _, maxPages := range caps {
				t.Run(fmt.Sprintf("%v/seed%d/cap%d", s, seed, maxPages), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.CoLTFAMaxPages = maxPages
					proc := osmem.NewProcess(s.Policy())
					if err := proc.InstallChunks(cl, 0); err != nil {
						t.Fatal(err)
					}
					if first := proc.Chunks()[0]; seed == 1 && (first.StartVPN != 0 || first.StartPFN != 0) {
						t.Fatalf("first chunk is %v, want VPN 0 at PFN 0", first)
					}
					o := &neighbourOracle{t: t, r: rand.New(rand.NewSource(seed * 7)), proc: proc, m: New(s, cfg, proc), maxPages: maxPages}
					o.drive("install", accesses)

					if seed == 1 {
						// Leaves VPN 3 in a block whose empty PTEs read as
						// frame 0, its pfnBase.
						proc.UnmapRange(0, 3)
					}
					for i := 0; i < 3; i++ {
						c := proc.Chunks()[o.r.Intn(len(proc.Chunks()))]
						start := c.StartVPN + mem.VPN(o.r.Int63n(int64(c.Pages)))
						proc.UnmapRange(start, uint64(1+o.r.Intn(600)))
					}
					o.drive("unmap", accesses)

					appendContinuing(t, proc, o.r)
					appendFresh(t, proc, o.r)
					o.drive("append", accesses)

					c := proc.Chunks()[o.r.Intn(len(proc.Chunks()))]
					if err := proc.SetProtection(c.StartVPN, c.Pages/2+1, osmem.ProtRead); err != nil {
						t.Fatal(err)
					}
					o.drive("protect", accesses)

					if _, err := proc.Compact(1<<32, osmem.SweepCostModel{}); err != nil {
						t.Fatal(err)
					}
					o.drive("compact", accesses)

					if o.checked < 50 {
						t.Fatalf("only %d misses checked; the drive is not exercising fills", o.checked)
					}
				})
			}
		}
	}
}

// appendContinuing remaps part of a hole right after a chunk onto the
// frames that physically continue that chunk; the list must coalesce the
// two into one run.
func appendContinuing(t *testing.T, proc *osmem.Process, r *rand.Rand) {
	t.Helper()
	cl := proc.Chunks()
	for _, i := range r.Perm(len(cl) - 1) {
		left, right := cl[i], cl[i+1]
		hole := uint64(right.StartVPN - left.EndVPN())
		if hole == 0 {
			continue
		}
		pages := uint64(1 + r.Int63n(int64(hole)))
		if err := proc.AppendChunk(mem.Chunk{StartVPN: left.EndVPN(), StartPFN: left.EndPFN(), Pages: pages}); err != nil {
			t.Fatal(err)
		}
		merged, ok := proc.Chunks().Lookup(left.StartVPN)
		if !ok || merged.StartVPN != left.StartVPN || merged.EndVPN() < left.EndVPN()+mem.VPN(pages) {
			t.Fatalf("remap continuing %v by %d pages did not coalesce: %v", left, pages, merged)
		}
		return
	}
	t.Fatal("no hole to remap into")
}

// appendFresh maps new frames, far from every other chunk, into a hole.
func appendFresh(t *testing.T, proc *osmem.Process, r *rand.Rand) {
	t.Helper()
	cl := proc.Chunks()
	for _, i := range r.Perm(len(cl) - 1) {
		hole := uint64(cl[i+1].StartVPN - cl[i].EndVPN())
		if hole < 2 {
			continue
		}
		start := cl[i].EndVPN() + 1
		if err := proc.AppendChunk(mem.Chunk{StartVPN: start, StartPFN: 1 << 30, Pages: hole - 1}); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no hole to map into")
}

// TestNoHiddenNeighbourWalks checks that neighbour discovery issues no
// page walks of its own: for every scheme but anchor (whose fill walks
// the anchor PTE), the page table's walk counter equals the MMU's walks
// plus faults, on both the per-access and the batched path.
func TestNoHiddenNeighbourWalks(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	cl := randomChunks(r, 40, 700)
	lo, hi := cl[0].StartVPN, cl[len(cl)-1].EndVPN()+64
	vpns := make([]mem.VPN, 20_000)
	for i := range vpns {
		vpns[i] = lo + mem.VPN(r.Int63n(int64(hi-lo)))
	}
	for _, s := range All() {
		if s == Anchor {
			continue
		}
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/batched=%v", s, batched), func(t *testing.T) {
				proc, m := buildProc(t, s, cl, 0)
				if batched {
					m.TranslateBatch(vpns)
				} else {
					for _, vpn := range vpns {
						m.Translate(vpn)
					}
				}
				st := m.Stats()
				if st.Walks == 0 || st.Faults == 0 {
					t.Fatalf("drive exercised no walks or no faults: %+v", st)
				}
				if got, want := proc.PageTable().Stats().Walks, st.Walks+st.Faults; got != want {
					t.Errorf("page table counted %d walks, MMU %d walks + faults", got, want)
				}
			})
		}
	}
}
