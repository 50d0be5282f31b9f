// Package workload provides synthetic stand-ins for the paper's benchmark
// suite (SPEC CPU2006, BioBench, graph500, gups). The authors drove their
// simulator with Pin-generated traces; those are not reproducible here, so
// each benchmark is modeled as a deterministic access-pattern generator
// whose page-level footprint, reuse and locality are chosen to mimic the
// benchmark's published TLB behaviour. What matters for the paper's
// results is how accesses spread across pages relative to the mapping's
// contiguity — which these generators control directly.
package workload

import "math/rand"

// pattern produces a stream of page indices in [0, footprint).
type pattern interface {
	next() uint64
}

// uniformPattern is GUPS-style uniform random access: effectively zero
// page locality, the TLB worst case.
type uniformPattern struct {
	r         *rand.Rand
	footprint uint64
}

func (p *uniformPattern) next() uint64 { return uint64(p.r.Int63n(int64(p.footprint))) }

// zipfGranule is the spatial-locality granule of skewed access patterns:
// consecutive hot ranks stay together in groups of this many pages,
// because real allocators place hot objects adjacently. Coalescing
// schemes (cluster, anchors) rely on exactly this page-level locality.
const zipfGranule = 16

// zipfPattern models skewed hot/cold access (canneal, xalancbmk,
// omnetpp): rank i is accessed with probability ∝ 1/(v+i)^s. Rank groups
// of zipfGranule pages are scattered across the footprint with a
// multiplicative hash, so hot regions are spread over the address space
// but locally contiguous.
type zipfPattern struct {
	z         *rand.Zipf
	footprint uint64
	// span is what groups scatter over: the footprint rounded down to
	// whole granules, and one granule for a footprint under one.
	span uint64
}

func newZipf(r *rand.Rand, footprint uint64, s float64) *zipfPattern {
	return &zipfPattern{
		z:         rand.NewZipf(r, s, 1, footprint-1),
		footprint: footprint,
		span:      max(footprint/zipfGranule, 1) * zipfGranule,
	}
}

func (p *zipfPattern) next() uint64 {
	rank := p.z.Uint64()
	group := rank / zipfGranule
	scattered := (group * 0x9E3779B97F4A7C15) % p.span
	return (scattered/zipfGranule*zipfGranule + rank%zipfGranule) % p.footprint
}

// streamPattern models sequential sweeps (milc, GemsFDTD, cactusADM):
// several concurrent streams walk the footprint with a page stride,
// touching each page repeat times before advancing (spatial locality
// within a page). Streams start evenly spaced and wrap around.
type streamPattern struct {
	footprint uint64
	cursors   []uint64
	stride    uint64
	repeat    int
	cur       int
	reps      int
}

func newStreams(footprint uint64, streams int, stride uint64, repeat int) *streamPattern {
	p := &streamPattern{footprint: footprint, stride: stride, repeat: repeat}
	for i := 0; i < streams; i++ {
		p.cursors = append(p.cursors, footprint/uint64(streams)*uint64(i))
	}
	return p
}

func (p *streamPattern) next() uint64 {
	v := p.cursors[p.cur]
	p.reps++
	if p.reps >= p.repeat {
		p.reps = 0
		p.cursors[p.cur] = (p.cursors[p.cur] + p.stride) % p.footprint
		p.cur = (p.cur + 1) % len(p.cursors)
	}
	return v
}

// chasePattern models pointer chasing over a large structure (mcf,
// mummer, tigr): a full-period LCG visits every page in a fixed pseudo-
// random order, like following a linked structure laid out by an
// allocator. footprint is rounded up to a power of two internally and
// out-of-range values are skipped, preserving full coverage; a footprint
// under one page chases page 0.
type chasePattern struct {
	footprint uint64
	mod       uint64 // power of two >= footprint
	cur       uint64
}

func newChase(footprint uint64, seed uint64) *chasePattern {
	footprint = max(footprint, 1)
	mod := uint64(1)
	for mod < footprint {
		mod <<= 1
	}
	return &chasePattern{footprint: footprint, mod: mod, cur: seed % footprint}
}

func (p *chasePattern) next() uint64 {
	for {
		// Full-period LCG modulo a power of two: a ≡ 5 (mod 8), odd c.
		p.cur = (p.cur*6364136223846793005 + 1442695040888963407) & (p.mod - 1)
		if p.cur < p.footprint {
			return p.cur
		}
	}
}

// walkPattern models spatially local wandering (astar's open list over a
// 2D lake grid): a random walk on a width×height page grid.
type walkPattern struct {
	r             *rand.Rand
	width, height uint64
	x, y          uint64
}

func newWalk(r *rand.Rand, footprint uint64) *walkPattern {
	w := uint64(1)
	for w*w < footprint {
		w++
	}
	h := footprint / w
	if h == 0 {
		h = 1
	}
	return &walkPattern{r: r, width: w, height: h, x: w / 2, y: h / 2}
}

func (p *walkPattern) next() uint64 {
	switch p.r.Intn(4) {
	case 0:
		p.x = (p.x + 1) % p.width
	case 1:
		p.x = (p.x + p.width - 1) % p.width
	case 2:
		p.y = (p.y + 1) % p.height
	default:
		p.y = (p.y + p.height - 1) % p.height
	}
	v := p.y*p.width + p.x
	if max := p.width * p.height; v >= max {
		v = max - 1
	}
	return v
}

// burstPattern wraps another pattern, expanding each of its accesses into
// a short sequential run (graph500 frontier scans: a random vertex lookup
// followed by a sweep over its adjacency list).
type burstPattern struct {
	r     *rand.Rand
	inner pattern

	footprint uint64
	maxBurst  int
	cur       uint64
	left      int
}

func newBurst(r *rand.Rand, inner pattern, footprint uint64, maxBurst int) *burstPattern {
	return &burstPattern{r: r, inner: inner, footprint: footprint, maxBurst: maxBurst}
}

func (p *burstPattern) next() uint64 {
	if p.left == 0 {
		p.cur = p.inner.next()
		p.left = 1 + p.r.Intn(p.maxBurst)
	}
	v := p.cur
	p.cur = (p.cur + 1) % p.footprint
	p.left--
	return v
}

// mixPattern interleaves sub-patterns with fixed weights (soplex's row
// sweeps plus random column accesses; sphinx3's model scans plus lookups).
type mixPattern struct {
	r        *rand.Rand
	parts    []pattern
	cumOdds  []int
	oddTotal int
}

func newMix(r *rand.Rand, parts []pattern, weights []int) *mixPattern {
	p := &mixPattern{r: r, parts: parts}
	total := 0
	for _, w := range weights {
		total += w
		p.cumOdds = append(p.cumOdds, total)
	}
	p.oddTotal = total
	return p
}

func (p *mixPattern) next() uint64 {
	pick := p.r.Intn(p.oddTotal)
	for i, c := range p.cumOdds {
		if pick < c {
			return p.parts[i].next()
		}
	}
	return p.parts[len(p.parts)-1].next()
}

// hotColdPattern confines a fraction of accesses to a small hot region
// (GemsFDTD's field arrays vs. auxiliary tables; sphinx3's active models).
type hotColdPattern struct {
	r         *rand.Rand
	hot       pattern
	cold      pattern
	hotPct    int
	hotPages  uint64
	footprint uint64
}

func newHotCold(r *rand.Rand, footprint uint64, hotFraction float64, hotPct int) *hotColdPattern {
	hotPages := uint64(float64(footprint) * hotFraction)
	if hotPages == 0 {
		hotPages = 1
	}
	return &hotColdPattern{
		r:         r,
		hot:       &uniformPattern{r: r, footprint: hotPages},
		cold:      &uniformPattern{r: r, footprint: footprint},
		hotPct:    hotPct,
		hotPages:  hotPages,
		footprint: footprint,
	}
}

func (p *hotColdPattern) next() uint64 {
	if p.r.Intn(100) < p.hotPct {
		return p.hot.next()
	}
	return p.cold.next()
}
