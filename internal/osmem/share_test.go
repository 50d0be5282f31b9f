package osmem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/pagetable"
)

// shareList draws an installable chunk list that exercises the layout
// rule: long 2 MiB-congruent chunks whose heads hold huge pages from some
// distance >= 1024 on, chunks straddling leaf tables, chunks whose last
// page is an anchor of distance 8 or more (its high half lands in the
// next entry, past the chunk: in a virtually adjacent chunk or an
// unmapped page), and short chunks.
func shareList(r *rand.Rand) mem.ChunkList {
	var cl mem.ChunkList
	vpn := mem.VPN(1<<20 + r.Intn(1<<12))
	pfn := mem.PFN(1<<24 + r.Intn(1<<12))
	for n := 4 + r.Intn(8); n > 0; n-- {
		var pages uint64
		switch r.Intn(4) {
		case 0:
			// A head reaching a 2 MiB page before the first d-aligned
			// page for some d >= 1024, then a long anchored tail.
			vpn += mem.VPN(r.Intn(4096))
			pfn = mem.PFN(uint64(pfn)|(mem.PagesPer2M-1)) + 1 + mem.PFN(uint64(vpn)%mem.PagesPer2M)
			pages = 1024 + uint64(r.Intn(6000))
		case 1:
			// Ends on a page aligned to 8 or more.
			end := (vpn + mem.VPN(1+r.Intn(3000))).AlignUp(8) + 1
			pages = uint64(end - vpn)
		case 2:
			// Straddles one or more leaf tables.
			pages = 300 + uint64(r.Intn(1500))
		default:
			pages = 1 + uint64(r.Intn(20))
		}
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: pfn, Pages: pages})
		vpn += mem.VPN(pages)
		// A frame gap keeps neighbours apart; half the time the next
		// chunk starts on the very next page.
		pfn += mem.PFN(pages + 1 + uint64(r.Intn(64)))
		if r.Intn(2) == 0 {
			vpn += mem.VPN(1 + r.Intn(40))
		}
	}
	return cl
}

// readsEqual fails t unless a and b read alike to an MMU at a's anchor
// distance: every walk over the span and one leaf table either side,
// every PTE line, every table line a walk touches, every anchor the MMU
// reads, and the huge pages.
func readsEqual(t *testing.T, what string, a, b *Process) {
	t.Helper()
	if a.AnchorDistance() != b.AnchorDistance() || a.HugePages() != b.HugePages() || a.FullFlushes() != b.FullFlushes() {
		t.Fatalf("%s: distance %d/%d, huge pages %d/%d, flushes %d/%d", what,
			a.AnchorDistance(), b.AnchorDistance(), a.HugePages(), b.HugePages(), a.FullFlushes(), b.FullFlushes())
	}
	if !slices.Equal(a.Chunks(), b.Chunks()) {
		t.Fatalf("%s: chunk lists differ", what)
	}
	cl := a.Chunks()
	lo := cl[0].StartVPN.AlignDown(mem.PagesPer2M) - mem.VPN(mem.PagesPer2M)
	hi := cl[len(cl)-1].EndVPN().AlignUp(mem.PagesPer2M) + mem.VPN(mem.PagesPer2M)
	ta, tb := a.PageTable(), b.PageTable()
	d := a.AnchorDistance()
	for v := lo; v < hi; v++ {
		pa, ca, bva, bpa, oka := ta.WalkFast(v)
		pb, cb, bvb, bpb, okb := tb.WalkFast(v)
		if pa != pb || ca != cb || bva != bvb || bpa != bpb || oka != okb {
			t.Fatalf("%s: walks of %#x differ", what, uint64(v))
		}
		if base := pa - mem.PFN(v%pagetable.EntriesPerCacheBlock); ta.LineBitmap(v, base) != tb.LineBitmap(v, base) {
			t.Fatalf("%s: PTE lines of %#x differ", what, uint64(v))
		}
		if !slices.Equal(ta.WalkLines(v), tb.WalkLines(v)) {
			t.Fatalf("%s: walk lines of %#x differ", what, uint64(v))
		}
		if a.Policy().Anchors && v.IsAligned(d) && ta.AnchorContiguity(v, d) != tb.AnchorContiguity(v, d) {
			t.Fatalf("%s: anchors at %#x differ: %d, want %d", what, uint64(v), tb.AnchorContiguity(v, d), ta.AnchorContiguity(v, d))
		}
	}
}

// TestBuildDistanceServesEveryDistance is the layout rule's property: at
// every distance, under every policy, a process reading a table built at
// the rule's distance — installed by InstallShared, or rebound from a
// table of that build distance — reads exactly like one InstallChunks
// installed at the distance itself.
func TestBuildDistanceServesEveryDistance(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	pols := []Policy{{}, {THP: true}, {Anchors: true}, {THP: true, Anchors: true}}
	pairs, heads := 0, 0
	for list := 0; list < 10; list++ {
		cl := shareList(r)
		for _, pol := range pols {
			// built holds a shared install per build distance.
			built := make(map[uint64]*Process)
			for _, d := range append(core.Distances(), 0) {
				what := fmt.Sprintf("list %d, %+v, d=%d", list, pol, d)
				fresh := NewProcess(pol)
				if err := fresh.InstallChunks(cl, d); err != nil {
					t.Fatal(err)
				}
				b := BuildDistance(fresh.Chunks(), pol, fresh.AnchorDistance())
				if pol.Anchors && b > pagetable.EntriesPerCacheBlock {
					heads++
				}
				shared := NewProcess(pol)
				if err := shared.InstallShared(cl, d); err != nil {
					t.Fatal(err)
				}
				readsEqual(t, what+" (shared install)", fresh, shared)
				if owner := built[b]; owner != nil {
					rebound, ok := owner.Rebind(pol, d)
					if !ok {
						t.Fatalf("%s: a table built at %d does not serve it", what, b)
					}
					readsEqual(t, what+" (rebound)", fresh, rebound)
				} else {
					built[b] = shared
				}
				for ob, owner := range built {
					if _, ok := owner.Rebind(pol, d); ok && ob != b {
						t.Fatalf("%s: a table built at %d serves it, want only one built at %d", what, ob, b)
					}
				}
				pairs++
			}
		}
	}
	if heads == 0 {
		t.Fatal("no list puts a 2 MiB page in a head")
	}
	t.Logf("%d (list, policy, distance) triples, %d served only at their own distance", pairs, heads)
}

// TestRebindTakesPolicyAndCostModel: a process rebound for a dynamic
// run selects with the new policy's cost model, not the one the table
// was installed under, re-selects with it, and starts from the counters
// a fresh install leaves.
func TestRebindTakesPolicyAndCostModel(t *testing.T) {
	cl := shareList(rand.New(rand.NewSource(5)))
	entry := Policy{THP: true, Anchors: true}
	capacity := entry
	capacity.Cost = core.CostCapacityAware
	selected := make(map[uint64]bool)
	for _, pol := range []Policy{entry, capacity} {
		fresh := NewProcess(pol)
		if err := fresh.InstallChunks(cl, 0); err != nil {
			t.Fatal(err)
		}
		// The owner pins the distance the fresh install selected, under
		// the other model, and has issued a shootdown since.
		other := entry
		if pol == entry {
			other = capacity
		}
		owner := NewProcess(other)
		if err := owner.InstallShared(cl, fresh.AnchorDistance()); err != nil {
			t.Fatal(err)
		}
		owner.shootdown(cl[0].StartVPN)
		q, ok := owner.Rebind(pol, 0)
		if !ok {
			t.Fatalf("%+v: a table built for distance %d does not serve the dynamic run selecting it", pol, fresh.AnchorDistance())
		}
		if q.Policy() != pol || q.AnchorDistance() != fresh.AnchorDistance() {
			t.Errorf("rebound %+v: policy %+v, distance %d; want distance %d", pol, q.Policy(), q.AnchorDistance(), fresh.AnchorDistance())
		}
		if q.EntryShootdowns() != 0 || q.FullFlushes() != 1 || q.DistanceChanges() != 0 {
			t.Errorf("rebound %+v: counters %d/%d/%d, want a fresh install's 0/1/0", pol,
				q.EntryShootdowns(), q.FullFlushes(), q.DistanceChanges())
		}
		if a, b := q.Reselect(DefaultSweepCost), fresh.Reselect(DefaultSweepCost); a != b {
			t.Errorf("rebound %+v re-selects %+v, fresh install %+v", pol, a, b)
		}
		selected[q.AnchorDistance()] = true
	}
	if len(selected) != 2 {
		t.Fatal("both cost models select one distance: the list tells them apart no longer")
	}
}

// TestRebindRefusesChangedTable: once a mapping update or a distance
// sweep writes the table, it serves no other install, and neither does a
// multi-region install or one under another THP or anchor setting.
func TestRebindRefusesChangedTable(t *testing.T) {
	pol := Policy{THP: true, Anchors: true}
	cl := shareList(rand.New(rand.NewSource(9)))
	for name, change := range map[string]func(p *Process){
		"unmap":    func(p *Process) { p.UnmapRange(cl[1].StartVPN, 4) },
		"append":   func(p *Process) { _ = p.AppendChunk(mem.Chunk{StartVPN: 1, StartPFN: 1, Pages: 3}) },
		"distance": func(p *Process) { p.ChangeDistance(4, DefaultSweepCost) },
		"protect":  func(p *Process) { _ = p.SetProtection(cl[0].StartVPN, 2, ProtRead) },
	} {
		p := NewProcess(pol)
		if err := p.InstallShared(cl, 8); err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Rebind(pol, 64); !ok {
			t.Fatalf("%s: an untouched table built at 8 does not serve 64", name)
		}
		change(p)
		if _, ok := p.Rebind(pol, 64); ok {
			t.Errorf("%s: a changed table still serves another install", name)
		}
	}
	p := NewProcess(pol)
	if err := p.InstallShared(cl, 8); err != nil {
		t.Fatal(err)
	}
	for _, other := range []Policy{{}, {THP: true}, {Anchors: true}} {
		if _, ok := p.Rebind(other, 8); ok {
			t.Errorf("a %+v table serves %+v", pol, other)
		}
	}
	if err := p.InstallChunksRegions(cl, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Rebind(pol, 8); ok {
		t.Error("a multi-region table serves a single-distance install")
	}
}
