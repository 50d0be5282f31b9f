package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridtlb/internal/mem"
)

// This file holds a naive reference model of Cache and RangeTLB. Each set
// (or the range array, one set of capacity lines) is a plain slice of
// lines stamped from a use counter, with the victim rules written out one
// loop at a time. The optimized structures must return what the model
// returns, op for op, under seeded random and fuzzed op streams.

// refLine is one way of a reference set or one line of the reference
// range array.
type refLine struct {
	valid   bool
	key     uint64
	e       Entry
	r       RangeEntry
	lastUse uint64
	hole    bool // emptied by a single-entry shootdown, not refilled since
}

// refPaths counts the rare paths a model run took, so a test can prove
// that its op stream reached them.
type refPaths struct {
	replace int // fill over the valid line with the same key or start
	hole    int // fill into a line a shootdown emptied
	evict   int // fill over the least recently used valid line
	overlap int // range hit whose lowest-index match is not the most recent
	mixed   int // cluster shootdown of a block a non-cluster entry of the set shares
}

func (p *refPaths) add(q refPaths) {
	p.replace += q.replace
	p.hole += q.hole
	p.evict += q.evict
	p.overlap += q.overlap
	p.mixed += q.mixed
}

type refModel struct {
	ways  int
	lines []refLine
	use   uint64
	paths refPaths
}

func newRefModel(sets, ways int) *refModel {
	return &refModel{ways: ways, lines: make([]refLine, sets*ways)}
}

func (m *refModel) set(s int) []refLine { return m.lines[s*m.ways : (s+1)*m.ways] }

// find returns the first valid line of set s that match accepts,
// stamping it as most recently used when promote is set.
func (m *refModel) find(s int, match func(*refLine) bool, promote bool) *refLine {
	for i := range m.set(s) {
		if l := &m.set(s)[i]; l.valid && match(l) {
			if promote {
				m.use++
				l.lastUse = m.use
			}
			return l
		}
	}
	return nil
}

// fill installs l in set s over the valid line same accepts, else the
// first invalid line, else the least recently used line.
func (m *refModel) fill(s int, same func(*refLine) bool, l refLine) {
	lines := m.set(s)
	victim := -1
	for i := range lines {
		if lines[i].valid && same(&lines[i]) {
			victim = i
			m.paths.replace++
			break
		}
	}
	if victim < 0 {
		for i := range lines {
			if !lines[i].valid {
				victim = i
				if lines[i].hole {
					m.paths.hole++
				}
				break
			}
		}
	}
	if victim < 0 {
		victim = 0
		for i := range lines {
			if lines[i].lastUse < lines[victim].lastUse {
				victim = i
			}
		}
		m.paths.evict++
	}
	m.use++
	l.valid, l.lastUse = true, m.use
	lines[victim] = l
}

// drop empties every valid line of set s that match accepts.
func (m *refModel) drop(s int, match func(*refLine) bool) int {
	n := 0
	for i := range m.set(s) {
		if l := &m.set(s)[i]; l.valid && match(l) {
			*l = refLine{hole: true}
			n++
		}
	}
	return n
}

func (m *refModel) flush() { clear(m.lines) }

func (m *refModel) occupancy() int {
	n := 0
	for _, l := range m.lines {
		if l.valid {
			n++
		}
	}
	return n
}

func refContains(r RangeEntry, v mem.VPN) bool {
	return v >= r.StartVPN && v < r.StartVPN+mem.VPN(r.Pages)
}

// chooser supplies an op stream's choices: a seeded rand.Rand for the
// randomized tests, the fuzzer's bytes for FuzzTLBModel.
type chooser interface{ Intn(n int) int }

// byteChooser reads one choice per byte and yields zeros once the bytes
// run out, so every input decodes to some op stream.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

// randomEntry draws a key and an entry of a random kind. Every VPNBase is
// below 24, so 4 KiB, 2 MiB and anchor entries share blocks 0, 8 and 16
// with the cluster entries; keys come from a small pool so fills often
// hit a resident key.
func randomEntry(ch chooser) (uint64, Entry) {
	kind := EntryKind(ch.Intn(int(numKinds)))
	e := Entry{Kind: kind, VPNBase: mem.VPN(ch.Intn(24)), PFNBase: mem.PFN(ch.Intn(256))}
	switch kind {
	case KindCluster:
		e.VPNBase &^= 7
		e.Bitmap = uint8(ch.Intn(256))
	case KindAnchor:
		e.Contig = uint64(ch.Intn(16))
	}
	return Key(kind, uint64(ch.Intn(12))), e
}

// diffCache runs ops random operations on c and on a model of the same
// geometry, failing at the first disagreement.
func diffCache(tb testing.TB, c *Cache, ch chooser, ops int) refPaths {
	tb.Helper()
	m := newRefModel(c.Sets(), c.Ways())
	for op := 0; op < ops; op++ {
		s := ch.Intn(c.Sets())
		block := mem.VPN(8 * ch.Intn(3))
		key, e := randomEntry(ch)
		byKey := func(l *refLine) bool { return l.key == key }
		var got, want any
		switch o := ch.Intn(32); {
		case o < 8:
			g, ok := c.Lookup(s, key)
			got, want = fmt.Sprint(g, ok), refEntry(m.find(s, byKey, true))
		case o < 10:
			g, ok := c.Peek(s, key)
			got, want = fmt.Sprint(g, ok), refEntry(m.find(s, byKey, false))
		case o < 16:
			c.Insert(s, key, e)
			m.fill(s, byKey, refLine{key: key, e: e})
		case o < 22:
			// A fill after a missed lookup of the same key, as the MMUs
			// issue it; the miss promotes nothing.
			if _, ok := c.Lookup(s, key); !ok {
				c.InsertNew(s, key, e)
			}
			if m.find(s, byKey, true) == nil {
				m.fill(s, byKey, refLine{key: key, e: e})
			}
		case o < 24:
			got, want = c.Invalidate(s, key), m.drop(s, byKey) > 0
		case o < 28:
			off := uint(ch.Intn(8))
			g, ok := c.LookupCluster(s, block, off)
			got, want = fmt.Sprint(g, ok), refEntry(m.find(s, func(l *refLine) bool {
				return l.e.Kind == KindCluster && l.e.VPNBase == block && l.e.Bitmap&(1<<off) != 0
			}, true))
		case o < 31:
			if m.find(s, func(l *refLine) bool { return l.e.Kind != KindCluster && l.e.VPNBase == block }, false) != nil {
				m.paths.mixed++
			}
			got, want = c.InvalidateCluster(s, block), m.drop(s, func(l *refLine) bool {
				return l.e.Kind == KindCluster && l.e.VPNBase == block
			})
		default:
			c.Flush()
			m.flush()
		}
		if got != want {
			tb.Fatalf("op %d: cache returned %v, model %v", op, got, want)
		}
		if g, w := c.Occupancy(nil), m.occupancy(); g != w {
			tb.Fatalf("op %d: occupancy %d, model %d", op, g, w)
		}
	}
	return m.paths
}

func refEntry(l *refLine) string {
	if l == nil {
		return fmt.Sprint(Entry{}, false)
	}
	return fmt.Sprint(l.e, true)
}

// diffRange runs ops random operations on t and on a one-set model of its
// capacity, failing at the first disagreement. Starts and lookups fall in
// a 64-page window and ranges are 0-16 pages long, so ranges overlap,
// restart at a resident start and cover one another's pages.
func diffRange(tb testing.TB, t *RangeTLB, ch chooser, ops int) refPaths {
	tb.Helper()
	m := newRefModel(1, t.Capacity())
	for op := 0; op < ops; op++ {
		v := mem.VPN(ch.Intn(64))
		var got, want any
		switch o := ch.Intn(64); {
		case o < 28:
			g, ok := t.Lookup(v)
			got, want = fmt.Sprint(g, ok), fmt.Sprint(RangeEntry{}, false)
			if hit := m.find(0, func(l *refLine) bool { return refContains(l.r, v) }, false); hit != nil {
				for _, l := range m.lines {
					if l.valid && refContains(l.r, v) && l.lastUse > hit.lastUse {
						m.paths.overlap++
						break
					}
				}
				m.use++
				hit.lastUse = m.use
				want = fmt.Sprint(hit.r, true)
			}
		case o < 52:
			r := RangeEntry{StartVPN: v, StartPFN: mem.PFN(ch.Intn(1024)), Pages: uint64(ch.Intn(17))}
			t.Insert(r)
			m.fill(0, func(l *refLine) bool { return l.r.StartVPN == r.StartVPN }, refLine{r: r})
		case o < 62:
			got = t.InvalidateContaining(v)
			want = m.drop(0, func(l *refLine) bool { return refContains(l.r, v) })
		default:
			t.Flush()
			m.flush()
		}
		if got != want {
			tb.Fatalf("op %d: range TLB returned %v, model %v", op, got, want)
		}
		if g, w := t.Occupancy(), m.occupancy(); g != w {
			tb.Fatalf("op %d: occupancy %d, model %d", op, g, w)
		}
	}
	return m.paths
}

func TestCacheMatchesModel(t *testing.T) {
	var all refPaths
	for _, sets := range []int{1, 2, 4, 8} {
		for ways := 1; ways <= 8; ways++ {
			for seed := int64(1); seed <= 3; seed++ {
				all.add(diffCache(t, NewCache(sets, ways), rand.New(rand.NewSource(seed)), 3000))
			}
		}
	}
	if all.replace == 0 || all.hole == 0 || all.evict == 0 || all.mixed == 0 {
		t.Errorf("op streams missed a path: %+v", all)
	}
}

func TestRangeTLBMatchesModel(t *testing.T) {
	var all refPaths
	for capacity := 1; capacity <= 33; capacity++ {
		for seed := int64(1); seed <= 3; seed++ {
			all.add(diffRange(t, NewRangeTLB(capacity), rand.New(rand.NewSource(seed)), 3000))
		}
	}
	if all.replace == 0 || all.hole == 0 || all.evict == 0 || all.overlap == 0 {
		t.Errorf("op streams missed a path: %+v", all)
	}
}

// FuzzTLBModel decodes its input into one op stream for a 2-set, 4-way
// Cache and another for a 4-line RangeTLB, and diffs both against the
// model. The seed corpus under testdata/fuzz runs in go test.
func FuzzTLBModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x03\x10\x07\x21\x00\x13\x0b\x1f\x02\x09\x1c\x3e\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		diffCache(t, NewCache(2, 4), &byteChooser{b: data}, len(data)/4+1)
		diffRange(t, NewRangeTLB(4), &byteChooser{b: data}, len(data)/2+1)
	})
}
