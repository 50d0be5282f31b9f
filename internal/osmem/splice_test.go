package osmem

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hybridtlb/internal/mem"
)

// appendChunkRebuild is AppendChunk as it was before it spliced the chunk
// list in place: a linear overlap check, then append, sort and re-coalesce
// the whole list. TestSpliceMatchesRebuild holds the splice to it.
func (p *Process) appendChunkRebuild(c mem.Chunk) error {
	if c.Pages == 0 {
		return fmt.Errorf("osmem: empty chunk")
	}
	if err := checkChunkRange(c); err != nil {
		return err
	}
	for _, existing := range p.chunks {
		if c.StartVPN < existing.EndVPN() && existing.StartVPN < c.EndVPN() {
			return fmt.Errorf("osmem: chunk %v overlaps existing %v", c, existing)
		}
	}
	p.installChunkAt(c, p.distanceForChunk(c))
	p.chunks = append(p.chunks, c)
	p.chunks.Sort()
	p.chunks = p.chunks.CoalesceVirtual()
	merged, ok := p.chunks.Lookup(c.StartVPN)
	if !ok {
		panic("osmem: appended chunk not found after merge")
	}
	if merged != c && p.policy.Anchors {
		p.rewriteAnchorsIn(merged.StartVPN, merged.EndVPN())
	}
	return nil
}

// unmapRangeRebuild is UnmapRange as it was before it spliced the chunk
// list in place: every chunk is visited and the list rebuilt and sorted.
func (p *Process) unmapRangeRebuild(startVPN mem.VPN, pages uint64) {
	if pages == 0 {
		return
	}
	endVPN := startVPN + mem.VPN(pages)
	var next mem.ChunkList
	for _, c := range p.chunks {
		if endVPN <= c.StartVPN || c.EndVPN() <= startVPN {
			next = append(next, c)
			continue
		}
		lo, hi := c.StartVPN, c.EndVPN()
		cutLo, cutHi := maxVPN(lo, startVPN), minVPN(hi, endVPN)

		p.demoteHugeOverlapping(cutLo, cutHi, c)
		for v := cutLo; v < cutHi; v++ {
			if p.pt.Unmap(v) {
				p.shootdown(v)
			}
		}
		if lo < cutLo {
			next = append(next, mem.Chunk{StartVPN: lo, StartPFN: c.StartPFN, Pages: uint64(cutLo - lo)})
		}
		if cutHi < hi {
			next = append(next, mem.Chunk{StartVPN: cutHi, StartPFN: c.Translate(cutHi), Pages: uint64(hi - cutHi)})
		}
	}
	next.Sort()
	p.chunks = next

	if p.policy.Anchors {
		from := mem.VPN(0)
		if startVPN > mem.VPN(1<<16) {
			from = (startVPN - 1<<16).AlignDown(p.dist)
		}
		p.rewriteAnchorsIn(from, endVPN)
	}
}

// spliceTwin is one process updated by the splicing code and one updated
// by the rebuild reference, with every shootdown and flush each delivers
// logged in order (a flush as flushMark).
type spliceTwin struct {
	splice, rebuild *Process
	logs            [2][]mem.VPN
}

const flushMark = ^mem.VPN(0)

func newSpliceTwin(t *testing.T, pol Policy, cl mem.ChunkList, regions bool) *spliceTwin {
	t.Helper()
	w := &spliceTwin{splice: NewProcess(pol), rebuild: NewProcess(pol)}
	for i, p := range []*Process{w.splice, w.rebuild} {
		log := &w.logs[i]
		p.OnInvalidate(func(v mem.VPN) { *log = append(*log, v) })
		p.OnFlush(func() { *log = append(*log, flushMark) })
		var err error
		if regions {
			err = p.InstallChunksRegions(cl, 0)
		} else {
			err = p.InstallChunks(cl, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// check compares the two processes field by field, the page tables in
// full, and the shootdown and flush sequences, then clears the logs.
func (w *spliceTwin) check(t *testing.T, op string) {
	t.Helper()
	a, b := w.splice, w.rebuild
	if !slices.Equal(a.chunks, b.chunks) {
		t.Fatalf("%s: chunks diverged:\nsplice:  %v\nrebuild: %v", op, a.chunks, b.chunks)
	}
	if err := a.chunks.Validate(); err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	for i := 1; i < len(a.chunks); i++ {
		if continues(a.chunks[i-1], a.chunks[i]) {
			t.Fatalf("%s: chunks %v and %v are one run: the list is not maximal", op, a.chunks[i-1], a.chunks[i])
		}
	}
	if !slices.Equal(w.logs[0], w.logs[1]) {
		t.Fatalf("%s: shootdowns diverged:\nsplice:  %v\nrebuild: %v", op, w.logs[0], w.logs[1])
	}
	if !reflect.DeepEqual(a.pt, b.pt) {
		t.Fatalf("%s: page tables diverged", op)
	}
	if !reflect.DeepEqual(a.huge, b.huge) || !slices.Equal(a.prots, b.prots) || !slices.Equal(a.regions, b.regions) {
		t.Fatalf("%s: huge pages, protections or regions diverged", op)
	}
	if a.dist != b.dist || a.entryShootdowns != b.entryShootdowns || a.fullFlushes != b.fullFlushes || a.distanceChanges != b.distanceChanges {
		t.Fatalf("%s: distance or counters diverged", op)
	}
	w.logs[0], w.logs[1] = w.logs[0][:0], w.logs[1][:0]
}

// spliceChunks draws a mapping of 40 chunks: runs of up to 1,200 pages
// or of one to three huge pages and a tail, half of them 2 MiB-congruent
// so THP promotes, separated by virtual gaps of 0 to 300 pages (a zero
// gap abuts a chunk whose frames do not continue it).
func spliceChunks(r *rand.Rand) mem.ChunkList {
	var cl mem.ChunkList
	v, pfn := mem.VPN(r.Intn(4096)), mem.PFN(1<<20)
	for len(cl) < 40 {
		pages := uint64(1 + r.Intn(1200))
		if r.Intn(4) == 0 {
			pages = mem.PagesPer2M*uint64(1+r.Intn(3)) + uint64(r.Intn(512))
		}
		start := pfn + 1
		if r.Intn(2) == 0 {
			start = mem.PFN((uint64(pfn)+mem.PagesPer2M)&^(mem.PagesPer2M-1) + uint64(v)%mem.PagesPer2M)
		}
		cl = append(cl, mem.Chunk{StartVPN: v, StartPFN: start, Pages: pages})
		pfn = start + mem.PFN(pages)
		v += mem.VPN(pages) + mem.VPN(r.Intn(301))
	}
	return cl
}

// TestSpliceMatchesRebuild drives random mapping updates through the
// splicing UnmapRange and AppendChunk and through the rebuild-and-sort
// reference above, under every policy and a multi-region install. Between
// them it runs the updates both share — protection changes, compaction,
// promotion and distance re-selection — so the splices see every state
// those leave. After each update the chunk list, every page-table entry,
// the OS counters and the exact order of shootdowns and flushes must
// match.
func TestSpliceMatchesRebuild(t *testing.T) {
	cases := []struct {
		name    string
		pol     Policy
		regions bool
	}{
		{"base", Policy{}, false},
		{"thp", Policy{THP: true}, false},
		{"anchor", Policy{Anchors: true}, false},
		{"anchor+thp", Policy{Anchors: true, THP: true}, false},
		{"anchor-regions", Policy{Anchors: true}, true},
	}
	// merges counts the appends by how many neighbours they merged with,
	// so the test proves it reached every splice shape.
	var merges [3]int
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				w := newSpliceTwin(t, tc.pol, spliceChunks(r), tc.regions)
				w.check(t, "install")
				fresh := mem.PFN(1 << 32)
				for step := 0; step < 60; step++ {
					cl := w.splice.chunks
					if len(cl) == 0 {
						break
					}
					lo, hi := cl[0].StartVPN, cl[len(cl)-1].EndVPN()
					// Only the splices are checked: the shared updates
					// run one implementation on equal states, and their
					// shootdowns are compared with the next splice's.
					switch k := r.Intn(10); {
					case k < 4:
						start := lo + mem.VPN(r.Int63n(int64(hi-lo)))
						pages := uint64(1 + r.Intn(1500))
						if r.Intn(4) == 0 {
							pages = 0
						}
						w.splice.UnmapRange(start, pages)
						w.rebuild.unmapRangeRebuild(start, pages)
						w.check(t, fmt.Sprintf("step %d: unmap %#x+%d", step, uint64(start), pages))
					case k < 8:
						c := spliceAppend(r, cl, &fresh)
						op := fmt.Sprintf("step %d: append %v", step, c)
						errA, errB := w.splice.AppendChunk(c), w.rebuild.appendChunkRebuild(c)
						if fmt.Sprint(errA) != fmt.Sprint(errB) {
							t.Fatalf("%s: errors diverged: splice %v, rebuild %v", op, errA, errB)
						}
						if errA == nil {
							merges[len(cl)+1-len(w.splice.chunks)]++
						}
						w.check(t, op)
					case k == 8:
						start := lo + mem.VPN(r.Int63n(int64(hi-lo)))
						pages := uint64(1 + r.Intn(700))
						prot := []Prot{ProtRead, ProtRead | ProtWrite, ProtRead | ProtExec}[r.Intn(3)]
						for _, p := range []*Process{w.splice, w.rebuild} {
							if err := p.SetProtection(start, pages, prot); err != nil {
								t.Fatal(err)
							}
						}
					default:
						target := mem.PFN(1<<30) + mem.PFN(r.Intn(1<<20))
						for _, p := range []*Process{w.splice, w.rebuild} {
							if _, err := p.Compact(target, DefaultSweepCost); err != nil {
								t.Fatal(err)
							}
							p.PromoteHugePages()
							p.Reselect(DefaultSweepCost)
						}
					}
				}
			})
		}
	}
	t.Logf("appends merging with 0, 1 and 2 neighbours: %v", merges)
	for n, count := range merges {
		if count == 0 {
			t.Errorf("no append merged with %d neighbours", n)
		}
	}
}

// spliceAppend draws a chunk to append to cl: one in eight overlaps a
// mapped page, which both implementations must refuse alike; the rest
// fill part of a hole, flush against its left or right neighbour or
// both, on frames that continue the left neighbour, meet the right one,
// or are fresh.
func spliceAppend(r *rand.Rand, cl mem.ChunkList, fresh *mem.PFN) mem.Chunk {
	if r.Intn(8) == 0 {
		c := cl[r.Intn(len(cl))]
		return mem.Chunk{StartVPN: c.StartVPN + mem.VPN(r.Int63n(int64(c.Pages))), StartPFN: *fresh, Pages: uint64(1 + r.Intn(64))}
	}
	// Hole i lies after cl[i]; the last is the 2,048 pages past the end.
	i := r.Intn(len(cl))
	holeLo, holeHi := cl[i].EndVPN(), cl[i].EndVPN()+2048
	if i+1 < len(cl) {
		holeHi = cl[i+1].StartVPN
	}
	for holeLo == holeHi {
		i = r.Intn(len(cl))
		holeLo, holeHi = cl[i].EndVPN(), cl[i].EndVPN()+2048
		if i+1 < len(cl) {
			holeHi = cl[i+1].StartVPN
		}
	}
	start, end := holeLo, holeHi
	switch r.Intn(4) {
	case 0: // flush left
		end = start + 1 + mem.VPN(r.Int63n(int64(holeHi-holeLo)))
	case 1: // flush right
		start = end - 1 - mem.VPN(r.Int63n(int64(holeHi-holeLo)))
	case 2: // inside
		start += mem.VPN(r.Int63n(int64(holeHi - holeLo)))
		end = start + 1 + mem.VPN(r.Int63n(int64(holeHi-start)))
	}
	c := mem.Chunk{StartVPN: start, Pages: uint64(end - start)}
	switch {
	case start == holeLo && r.Intn(2) == 0:
		c.StartPFN = cl[i].EndPFN()
	case i+1 < len(cl) && end == holeHi && uint64(cl[i+1].StartPFN) >= c.Pages && r.Intn(2) == 0:
		c.StartPFN = cl[i+1].StartPFN - mem.PFN(c.Pages)
	default:
		c.StartPFN = *fresh
		*fresh += mem.PFN(c.Pages + 1)
	}
	return c
}
