package pagetable_test

import (
	"fmt"
	"reflect"
	"testing"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/pagetable"
)

// reuseChunks is a mapping whose install exercises every way a reused
// leaf can show through: chunks that start and end mid-leaf; a chunk
// ending one page past a 2^16-aligned page, the anchor at every
// distance, whose high half (d >= 8) lands in the first entry of the
// virtually adjacent next chunk; chunks long enough for 2 MiB pages and
// both contiguity caps; and small chunks with holes between them.
func reuseChunks() mem.ChunkList {
	const x = mem.VPN(1 << 16)
	cl := mem.ChunkList{
		{StartVPN: x - 1000, StartPFN: 0x40000 - 997, Pages: 1001},
		{StartVPN: x + 1, StartPFN: 0x90001, Pages: 300},
		{StartVPN: x + 301, StartPFN: 0x200000 + 301, Pages: 70_000},
	}
	vpn, pfn := x+70_301+37, mem.PFN(0x300000)
	for i := 0; i < 200; i++ {
		pages := uint64(1 + (i*37)%29)
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: pfn, Pages: pages})
		vpn += mem.VPN(pages + uint64(i%3))
		pfn += mem.PFN(pages + 1)
	}
	return cl
}

// TestPoisonedReuseMatchesFreshInstall installs a mapping into a table
// drawing on a list of released slabs whose every entry reads all ones,
// and requires it to equal a fresh install entry for entry (ignored
// bits included), in every leaf frame and in Stats, under all four
// policies and, with anchors, at all sixteen distances. The slabs come
// from the same install, after Collapse2M dropped one of its leaves.
func TestPoisonedReuseMatchesFreshInstall(t *testing.T) {
	cl := reuseChunks()
	for _, pol := range []osmem.Policy{{}, {THP: true}, {Anchors: true}, {THP: true, Anchors: true}} {
		dists := []uint64{0}
		if pol.Anchors {
			dists = core.Distances()
		}
		for _, d := range dists {
			name := fmt.Sprintf("%+v d=%d", pol, d)
			l := new(pagetable.Leaves)
			first := osmem.NewProcessOn(pol, l)
			if err := first.InstallChunks(cl, d); err != nil {
				t.Fatal(err)
			}
			// x-512 starts a leaf of the first chunk, whose frames are
			// not 2 MiB-congruent to its pages: a 4 KiB leaf under every
			// policy.
			if err := first.PageTable().Collapse2M(1<<16-512, 1<<20, pagetable.FlagWrite); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			first.PageTable().Release()
			slabs := pagetable.FreeSlabs(l)
			pagetable.Poison(l)

			got, want := osmem.NewProcessOn(pol, l), osmem.NewProcess(pol)
			if err := got.InstallChunks(cl, d); err != nil {
				t.Fatal(err)
			}
			if err := want.InstallChunks(cl, d); err != nil {
				t.Fatal(err)
			}
			if n := pagetable.FreeSlabs(l); n != 0 || slabs == 0 {
				t.Fatalf("%s: the second install left %d of %d released slabs on the list", name, n, slabs)
			}
			if !reflect.DeepEqual(pagetable.DumpTable(got.PageTable()), pagetable.DumpTable(want.PageTable())) {
				t.Fatalf("%s: an install into poisoned slabs differs from a fresh one", name)
			}
			if g, w := got.PageTable().Stats(), want.PageTable().Stats(); g != w {
				t.Fatalf("%s: stats %+v, fresh install %+v", name, g, w)
			}
		}
	}
}
