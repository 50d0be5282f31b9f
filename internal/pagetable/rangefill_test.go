package pagetable

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"hybridtlb/internal/mem"
)

// mapRangeRef is the reference MapRange4K must match: one Map4K per page.
func mapRangeRef(pt *Table, vpn mem.VPN, pfn mem.PFN, pages uint64, flags PTE) {
	for k := uint64(0); k < pages; k++ {
		pt.Map4K(vpn+mem.VPN(k), pfn+mem.PFN(k), flags)
	}
}

type rangeEntry struct {
	VPN   mem.VPN
	Entry PTE
	Class mem.PageClass
}

func rangeOf(pt *Table) []rangeEntry {
	var out []rangeEntry
	pt.Range(func(vpn mem.VPN, e PTE, class mem.PageClass) bool {
		out = append(out, rangeEntry{vpn, e, class})
		return true
	})
	return out
}

// requireSameTables compares everything a reader of the table can see:
// the Range listing, Walk results and WalkLines addresses for probes, and
// the node and write counts.
func requireSameTables(t *testing.T, step string, got, want *Table, probes []mem.VPN) {
	t.Helper()
	if g, w := rangeOf(got), rangeOf(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Range differs: %d entries, reference %d", step, len(g), len(w))
	}
	for _, v := range probes {
		if g, w := got.Walk(v), want.Walk(v); g != w {
			t.Fatalf("%s: Walk(%#x) = %+v, reference %+v", step, uint64(v), g, w)
		}
		if g, w := got.WalkLines(v), want.WalkLines(v); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: WalkLines(%#x) = %#x, reference %#x", step, uint64(v), g, w)
		}
	}
	if g, w := got.Stats(), want.Stats(); g.Nodes != w.Nodes || g.PTEWrites != w.PTEWrites {
		t.Fatalf("%s: stats %+v, reference %+v", step, g, w)
	}
}

// TestMapRange4KMatchesPerPage builds tables from random ranges both ways
// and requires them identical. Ranges start mid-leaf, cross leaf (512-page)
// and PD (1 GiB) boundaries, remap pages already mapped, and cover anchor
// bits written into entries before their pages were mapped.
func TestMapRange4KMatchesPerPage(t *testing.T) {
	const pdSpan = 1 << 18 // pages under one PD table
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		got, want := New(), New()
		var probes []mem.VPN
		for op := 0; op < 60; op++ {
			// Starts cluster just below PD boundaries, so ranges cross them.
			vpn := mem.VPN(1+r.Intn(4))*pdSpan - mem.VPN(r.Intn(3000))
			switch r.Intn(4) {
			case 0:
				// An anchor written into a leaf before its page is
				// mapped: map a neighbour so the leaf exists, record the
				// anchor, and let a later range land on it.
				avpn := vpn.AlignDown(8)
				got.Map4K(avpn+8, 7, 0)
				want.Map4K(avpn+8, 7, 0)
				contig := uint64(1 + r.Intn(5000))
				got.SetAnchorContiguity(avpn, 8, contig)
				want.SetAnchorContiguity(avpn, 8, contig)
			case 1:
				got.Unmap(vpn)
				want.Unmap(vpn)
			default:
				pages := uint64(1 + r.Intn(2500))
				pfn := mem.PFN(r.Int63n(1 << 30))
				flags := PTE(r.Uint64()) & FlagMask // FlagHuge included: it must be dropped
				got.MapRange4K(vpn, pfn, pages, flags)
				mapRangeRef(want, vpn, pfn, pages, flags)
			}
			probes = append(probes, vpn, vpn+1, vpn+511, vpn+mem.VPN(r.Intn(3000)))
			if op%10 == 9 {
				requireSameTables(t, fmt.Sprintf("seed %d op %d", seed, op), got, want, probes)
			}
		}
		// Collapsing a range-built leaf frees exactly its one table.
		base := mem.VPN(pdSpan - mem.PagesPer2M)
		got.MapRange4K(base, 1<<20, mem.PagesPer2M, FlagWrite)
		mapRangeRef(want, base, 1<<20, mem.PagesPer2M, FlagWrite)
		nodes := got.Stats().Nodes
		if err := got.Collapse2M(base, 1<<20, FlagWrite); err != nil {
			t.Fatal(err)
		}
		if err := want.Collapse2M(base, 1<<20, FlagWrite); err != nil {
			t.Fatal(err)
		}
		if n := got.Stats().Nodes; n != nodes-1 {
			t.Fatalf("seed %d: Collapse2M freed %d nodes, want 1", seed, nodes-n)
		}
		requireSameTables(t, fmt.Sprintf("seed %d collapse", seed), got, want, append(probes, base, base+100))
	}
}

// TestMapRange4KEdges covers anchor bits under a range that crosses a
// leaf boundary, the empty range, a range whose last frame overflows
// the PTE frame field (it panics before writing anything), and a range
// over more than two slabs of leaf tables with an interior table
// allocated between two of them.
func TestMapRange4KEdges(t *testing.T) {
	pt := New()
	pt.Map4K(1000, 1, 0) // the leaf of pages 512-1023 exists
	pt.Map4K(1100, 1, 0) // and that of pages 1024-1535
	pt.SetAnchorContiguity(1008, 8, 300)
	pt.SetAnchorContiguity(1024, 8, 700)
	pt.MapRange4K(1000, 5000, 100, FlagWrite)
	if a, b := pt.AnchorContiguity(1008, 8), pt.AnchorContiguity(1024, 8); a != 300 || b != 700 {
		t.Fatalf("anchors after a range fill = %d and %d, want 300 and 700", a, b)
	}

	pt = New()
	pt.MapRange4K(100, 5, 0, FlagWrite)
	if s := pt.Stats(); s.Nodes != 1 || s.PTEWrites != 0 {
		t.Fatalf("empty range changed the table: %+v", s)
	}
	pt.MapRange4K(0x1234, MaxPFN, 1, 0) // the last frame is valid
	before := rangeOf(pt)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("range past the frame field did not panic")
			}
		}()
		pt.MapRange4K(0, MaxPFN-1, 3, 0)
	}()
	if after := rangeOf(pt); !reflect.DeepEqual(after, before) {
		t.Fatalf("overflowing range wrote entries: %d -> %d", len(before), len(after))
	}

	// Every leaf, whichever slab it was carved from, takes the frame of
	// its allocation index in the table region. The range ends one PD
	// (1 GiB) further on, so the PD allocated between two leaves
	// takes an index too.
	pt = New()
	first := mem.VPN(mem.PagesPer1G) - (leafSlab+3)*entriesPerNode
	leaves := 2*leafSlab + 5
	pt.MapRange4K(first, 0x200000, uint64(leaves*entriesPerNode), FlagWrite)
	for k := 0; k < leaves; k++ {
		vpn := first + mem.VPN(k*entriesPerNode)
		index := uint64(3 + k) // the root, the PDPT and the first PD come first
		if vpn >= mem.VPN(mem.PagesPer1G) {
			index++ // the second PD
		}
		want := tableRegionBase + mem.PhysAddr(index)<<mem.Shift4K + mem.PhysAddr(indexAt(vpn, LevelPT)*8)
		if got := pt.WalkLines(vpn)[LevelPT]; got != want {
			t.Fatalf("leaf %d: PTE line %#x, want %#x (allocation index %d)", k, uint64(got), uint64(want), index)
		}
		if w := pt.Walk(vpn + 7); !w.Present || w.PFN != mem.PFN(0x200000+k*entriesPerNode+7) {
			t.Fatalf("leaf %d: walk = %+v", k, w)
		}
	}
	if n := pt.Stats().Nodes; n != uint64(4+leaves) {
		t.Errorf("Nodes = %d, want the root, a PDPT, two PDs and %d leaves", n, leaves)
	}
}

// TestLeafTableIsPointerFree pins the leaf layout: exactly one 4 KiB page
// of entries, no pointers for the garbage collector to scan.
func TestLeafTableIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(leaf{}); n != 4096 {
		t.Fatalf("leaf table is %d bytes, want 4096", n)
	}
	if k := reflect.TypeOf(leaf{}).Elem().Kind(); k != reflect.Uint64 {
		t.Fatalf("leaf entries are %v, want uint64", k)
	}
}

// TestMapRange4KAnchoredMatchesReference: the anchored fill equals
// MapRange4K followed by SetAnchorContiguity at every dist-aligned page
// of the range, entry for entry (ignored bits included) and in
// PTEWrites, at every distance. Random chunk lists are installed in
// random order, so ranges land in new leaves and in leaves holding
// another range's entries and anchor halves; some chunks are virtually
// adjacent, so a distributed anchor's high half lands in the next
// chunk's first entry, and some outrun both contiguity caps.
func TestMapRange4KAnchoredMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		var cl mem.ChunkList
		vpn := mem.VPN(r.Intn(3000))
		for len(cl) < 120 {
			pages := uint64(1 + r.Intn(1500))
			if len(cl) == 60 {
				pages = MaxContiguity + 1 + uint64(r.Intn(2000))
			}
			cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: mem.PFN(r.Int63n(1 << 30)), Pages: pages})
			vpn += mem.VPN(pages) + mem.VPN(r.Intn(3)*r.Intn(700))
		}
		r.Shuffle(len(cl), func(i, j int) { cl[i], cl[j] = cl[j], cl[i] })
		for dist := uint64(2); dist <= MaxContiguity; dist *= 2 {
			got, want := New(), New()
			for _, c := range cl {
				got.MapRange4KAnchored(c.StartVPN, c.StartPFN, c.Pages, FlagWrite|FlagUser, dist)
				want.MapRange4K(c.StartVPN, c.StartPFN, c.Pages, FlagWrite|FlagUser)
				for avpn := c.StartVPN.AlignUp(dist); avpn < c.EndVPN(); avpn += mem.VPN(dist) {
					want.SetAnchorContiguity(avpn, dist, uint64(c.EndVPN()-avpn))
				}
			}
			if !reflect.DeepEqual(DumpTable(got), DumpTable(want)) {
				t.Fatalf("seed %d, distance %d: the anchored fill's entries differ from the reference's", seed, dist)
			}
			if g, w := got.Stats(), want.Stats(); g != w {
				t.Fatalf("seed %d, distance %d: stats %+v, reference %+v", seed, dist, g, w)
			}
		}
	}
}

// TestRelease: a released table hands the slabs it carved from back to
// its list, which then holds no more than that table's slabs, and every
// later use of the table except Stats panics instead of reading leaves
// another table may hold by then.
func TestRelease(t *testing.T) {
	l := new(Leaves)
	big := NewOn(l)
	big.MapRange4K(0, 0x1000, (leafSlab+1)*entriesPerNode, FlagWrite)
	big.Release()
	if n := FreeSlabs(l); n != 2 {
		t.Fatalf("released a table of %d leaves: the list holds %d slabs, want 2", leafSlab+1, n)
	}
	unused := NewOn(l)
	unused.Release()
	if n := FreeSlabs(l); n != 2 {
		t.Fatalf("a table that carved no leaf changed the list to %d slabs", n)
	}

	small := NewOn(l)
	small.MapRange4K(3*entriesPerNode, 0x1000, 10, FlagWrite)
	if n := FreeSlabs(l); n != 0 {
		t.Fatalf("a table carving its first leaf left %d slabs on the list, want it to take them all", n)
	}
	stats := small.Stats()
	small.Release()
	small.Release()
	if n := FreeSlabs(l); n != 1 {
		t.Fatalf("after releasing a one-slab table the list holds %d slabs, want 1", n)
	}
	if s := small.Stats(); s != stats {
		t.Errorf("Stats after Release = %+v, want %+v", s, stats)
	}

	for name, use := range map[string]func(){
		"Walk":                func() { small.Walk(3 * entriesPerNode) },
		"WalkFast":            func() { small.WalkFast(3 * entriesPerNode) },
		"WalkLines":           func() { small.WalkLines(3 * entriesPerNode) },
		"LineBitmap":          func() { small.LineBitmap(3*entriesPerNode, 0x1000) },
		"AnchorContiguity":    func() { small.AnchorContiguity(3*entriesPerNode, 8) },
		"SetAnchorContiguity": func() { small.SetAnchorContiguity(3*entriesPerNode, 8, 4) },
		"Range":               func() { small.Range(func(mem.VPN, PTE, mem.PageClass) bool { return true }) },
		"MapRange4K":          func() { small.MapRange4K(0, 0x1000, 1, FlagWrite) },
		"Map2M":               func() { _ = small.Map2M(0, 0, FlagWrite) },
		"Map1G":               func() { _ = small.Map1G(0, 0, FlagWrite) },
		"Collapse2M":          func() { _ = small.Collapse2M(3*entriesPerNode, 0, FlagWrite) },
		"Unmap":               func() { small.Unmap(3 * entriesPerNode) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released table did not panic", name)
				}
			}()
			use()
		}()
	}
}
