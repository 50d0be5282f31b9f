package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/tlb"
	"hybridtlb/internal/trace"
)

// sink keeps the results of timed calls live, so the compiler cannot
// drop the calls.
var sink uint64

// perCall accumulates isolated timings of one layer function.
type perCall struct{ ns, calls float64 }

func (p *perCall) add(d time.Duration, calls int) {
	p.ns += float64(d.Nanoseconds())
	p.calls += float64(calls)
}

func (p perCall) mean() float64 { return ratio(p.ns, p.calls) }

// microLedger times the layers that run only inside TranslateBatch by
// calling them in isolation on each run's own state: its final page
// table, its first accesses and its contiguity histogram.
type microLedger struct {
	walk, anchorRead, l1, l2, rangeLookup, selectDistance perCall
}

// selectRepeats is how many times each anchor run's histogram goes
// through Algorithm 1; one call is short against the clock.
const selectRepeats = 3

func (ml *microLedger) time(rp *replica, hw mmu.Config) {
	vs := rp.sample
	if len(vs) == 0 {
		return
	}
	proc := rp.proc
	pt := proc.PageTable()
	t0 := time.Now()
	for _, v := range vs {
		pfn, _, _, _, _ := pt.WalkFast(v)
		sink += uint64(pfn)
	}
	ml.walk.add(time.Since(t0), len(vs))

	if pol := proc.Policy(); pol.Anchors {
		avpns := make([]mem.VPN, len(vs))
		dists := make([]uint64, len(vs))
		for i, v := range vs {
			dists[i] = proc.DistanceAt(v)
			avpns[i] = core.AnchorVPN(v, dists[i])
		}
		t0 = time.Now()
		for i, a := range avpns {
			sink += pt.AnchorContiguity(a, dists[i])
		}
		ml.anchorRead.add(time.Since(t0), len(vs))

		hist := proc.Histogram()
		t0 = time.Now()
		for i := 0; i < selectRepeats; i++ {
			d, _ := core.SelectDistanceModel(hist, pol.Cost)
			sink += d
		}
		ml.selectDistance.add(time.Since(t0), selectRepeats)
	}
	ml.l1.add(timeCacheLookups(vs, hw.L1Entries4K/hw.L1Ways4K, hw.L1Ways4K), len(vs))
	ml.l2.add(timeCacheLookups(vs, hw.L2Entries/hw.L2Ways, hw.L2Ways), len(vs))
	ml.rangeLookup.add(timeRangeLookups(vs, proc.Chunks(), hw.RangeEntries), len(vs))
}

// timeCacheLookups fills a set-associative TLB of the given geometry
// with the sample's 4 KiB translations in access order, then times one
// Lookup per sample VPN.
func timeCacheLookups(vs []mem.VPN, sets, ways int) time.Duration {
	c := tlb.NewCache(sets, ways)
	setOf := make([]int, len(vs))
	keys := make([]uint64, len(vs))
	for i, v := range vs {
		setOf[i] = int(uint64(v) & c.SetMask())
		keys[i] = tlb.Key(tlb.Kind4K, uint64(v))
		if _, ok := c.Lookup(setOf[i], keys[i]); !ok {
			c.InsertNew(setOf[i], keys[i], tlb.Entry{Kind: tlb.Kind4K, VPNBase: v})
		}
	}
	t0 := time.Now()
	for i := range vs {
		if e, ok := c.Lookup(setOf[i], keys[i]); ok {
			sink += uint64(e.VPNBase)
		}
	}
	return time.Since(t0)
}

// timeRangeLookups fills a range TLB with the chunks the sample touches,
// in access order, then times one Lookup per sample VPN.
func timeRangeLookups(vs []mem.VPN, cl mem.ChunkList, entries int) time.Duration {
	rt := tlb.NewRangeTLB(entries)
	for _, v := range vs {
		if _, ok := rt.Lookup(v); ok {
			continue
		}
		if c, ok := cl.Lookup(v); ok {
			rt.Insert(tlb.RangeEntry{StartVPN: c.StartVPN, StartPFN: c.StartPFN, Pages: c.Pages})
		}
	}
	t0 := time.Now()
	for _, v := range vs {
		if r, ok := rt.Lookup(v); ok {
			sink += uint64(r.StartPFN)
		}
	}
	return time.Since(t0)
}

// decodePasses is how many decode-only passes each trace format gets;
// the median is reported.
const decodePasses = 3

// timeDecode times decode-only passes over the trace in both formats:
// the varint original and an HTLBTRB2 copy of it. It returns ns per
// record for each.
func timeDecode(tracePath, dir string) (varintNS, binNS float64, err error) {
	binPath := filepath.Join(dir, filepath.Base(tracePath)+".bin")
	if err := writeBinCopy(tracePath, binPath); err != nil {
		return 0, 0, err
	}
	if varintNS, err = decodeNS(tracePath); err == nil {
		binNS, err = decodeNS(binPath)
	}
	if rerr := os.Remove(binPath); err == nil {
		err = rerr
	}
	return varintNS, binNS, err
}

// decodeNS reads every record of a trace file decodePasses times and
// returns the median ns per record.
func decodeNS(path string) (float64, error) {
	recs := make([]trace.Record, batchRecords)
	var per []float64
	for p := 0; p < decodePasses; p++ {
		src, closeSrc, err := trace.OpenPath(path)
		if err != nil {
			return 0, err
		}
		var n uint64
		t0 := time.Now()
		for {
			k := src.ReadBatch(recs)
			if k == 0 {
				break
			}
			n += uint64(k)
			sink += uint64(recs[k-1].VPN)
		}
		d := time.Since(t0)
		if err := closeSrc(); err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, fmt.Errorf("%s: empty trace", path)
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per), nil
}
