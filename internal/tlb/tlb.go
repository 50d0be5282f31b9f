// Package tlb provides the hardware translation-buffer structures the
// simulator composes into full MMUs: a set-associative TLB with true LRU
// replacement (used for the L1s, the shared L2, and the partitioned
// cluster TLB) and a small fully-associative range TLB (used for RMM's
// segment translations).
//
// The set-associative cache stores uniform Entry values and is indexed by
// an externally computed (set, key) pair, because the paper's anchor scheme
// deliberately reuses the same physical L2 array with three different
// indexing functions (Figure 6): 4 KiB entries index with VPN low bits,
// 2 MiB entries with VPN>>9, and anchor entries with VPN>>d, where d is the
// process's current anchor distance.
package tlb

import (
	"fmt"

	"hybridtlb/internal/mem"
)

// EntryKind discriminates what a TLB entry translates. Kinds are part of
// the lookup key so that, e.g., an anchor entry can never satisfy a 4 KiB
// lookup with an aliasing tag.
type EntryKind uint8

// The entry kinds used by the translation schemes.
const (
	Kind4K EntryKind = iota
	Kind2M
	KindAnchor
	KindCluster
	numKinds
)

// String names the entry kind.
func (k EntryKind) String() string {
	switch k {
	case Kind4K:
		return "4K"
	case Kind2M:
		return "2M"
	case KindAnchor:
		return "anchor"
	case KindCluster:
		return "cluster"
	default:
		return fmt.Sprintf("EntryKind(%d)", uint8(k))
	}
}

// Entry is one translation record. The word-sized fields lead so the
// struct packs into 32 bytes; a whole L2 set then spans two cache lines
// instead of four, which matters because every lookup scans the set.
type Entry struct {
	// VPNBase is the first VPN the entry covers (page base for 4K/2M,
	// anchor VPN for anchors, 8-aligned block base for clusters).
	VPNBase mem.VPN
	// PFNBase is the frame corresponding to VPNBase.
	PFNBase mem.PFN
	// Contig is the anchor contiguity in pages (anchor entries only).
	Contig uint64
	Kind   EntryKind
	// Bitmap marks which of the 8 block offsets a cluster entry covers
	// (cluster entries only).
	Bitmap uint8
}

// Cache is a set-associative TLB with true-LRU replacement within a set.
// The zero value is unusable; call NewCache.
//
// Storage is split into parallel per-way arrays rather than an
// array-of-structs: the match scan touches only keys (8 bytes per way, so
// an 8-way set's tags fit in a single cache line) and victim selection
// touches only lrus; the 32-byte Entry payload is read or written once,
// on a hit. An lru of 0 marks an invalid way — the clock is incremented
// before every stamp, so live ways always carry lru >= 1, and zeroing a
// way (Invalidate, Flush) is exactly the invalid encoding.
type Cache struct {
	sets, ways int
	keys       []uint64
	lrus       []uint64
	entries    []Entry
	clock      uint64
}

// NewCache creates a cache with the given geometry. sets must be a power
// of two; ways >= 1.
func NewCache(sets, ways int) *Cache {
	if sets <= 0 || !mem.IsPow2(uint64(sets)) {
		panic(fmt.Sprintf("tlb: sets %d must be a positive power of two", sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("tlb: ways %d must be positive", ways))
	}
	n := sets * ways
	return &Cache{
		sets:    sets,
		ways:    ways,
		keys:    make([]uint64, n),
		lrus:    make([]uint64, n),
		entries: make([]Entry, n),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Entries returns the total capacity in entries.
func (c *Cache) Entries() int { return c.sets * c.ways }

// SetMask returns sets-1, for external index computation.
func (c *Cache) SetMask() uint64 { return uint64(c.sets - 1) }

// Key packs an (kind, tag) pair into a lookup key. Tags are arbitrary
// values derived from the VPN by the scheme's indexing function.
func Key(kind EntryKind, tag uint64) uint64 {
	return tag<<3 | uint64(kind)
}

// Lookup searches the set for the key and promotes the entry to MRU on a
// hit.
//
//tlbvet:hotpath
func (c *Cache) Lookup(set int, key uint64) (Entry, bool) {
	base := set * c.ways
	keys := c.keys[base : base+c.ways : base+c.ways]
	for i := range keys {
		if keys[i] == key && c.lrus[base+i] != 0 {
			c.clock++
			c.lrus[base+i] = c.clock
			return c.entries[base+i], true
		}
	}
	return Entry{}, false
}

// LookupCluster finds the first valid KindCluster entry of the set whose
// block base is block and whose bitmap covers offset off (0-7), promoting
// it to MRU on a hit. One virtual block can hold several cluster entries
// with different physical bases, so cluster entries are found by block
// and bitmap rather than by exact key.
//
//tlbvet:hotpath
func (c *Cache) LookupCluster(set int, block mem.VPN, off uint) (Entry, bool) {
	base := set * c.ways
	lrus := c.lrus[base : base+c.ways : base+c.ways]
	entries := c.entries[base : base+c.ways : base+c.ways]
	bit := uint8(1) << off
	for i := range lrus {
		e := &entries[i]
		if e.VPNBase == block && e.Kind == KindCluster && e.Bitmap&bit != 0 && lrus[i] != 0 {
			c.clock++
			lrus[i] = c.clock
			return *e, true
		}
	}
	return Entry{}, false
}

// Peek is Lookup without the LRU update (used by tests and stats probes).
func (c *Cache) Peek(set int, key uint64) (Entry, bool) {
	base := set * c.ways
	keys := c.keys[base : base+c.ways : base+c.ways]
	for i := range keys {
		if keys[i] == key && c.lrus[base+i] != 0 {
			return c.entries[base+i], true
		}
	}
	return Entry{}, false
}

// Insert installs the entry under key, evicting the set's LRU way if
// necessary. Inserting an existing key overwrites it in place. The
// evicted entry is overwritten without being read: no caller needs it.
//
//tlbvet:hotpath
func (c *Cache) Insert(set int, key uint64, e Entry) {
	base := set * c.ways
	keys := c.keys[base : base+c.ways : base+c.ways]
	lrus := c.lrus[base : base+c.ways : base+c.ways]
	// victim selection: an exact key match wins, else the first invalid
	// way, else true LRU. vLRU shadows lrus[victim] (0 = invalid way held)
	// so the scan reads each way once.
	victim := 0
	vLRU := lrus[0]
	for i := range keys {
		li := lrus[i]
		if li != 0 && keys[i] == key {
			victim = i
			break
		}
		if li == 0 {
			if vLRU != 0 {
				victim, vLRU = i, 0
			}
			continue
		}
		if vLRU != 0 && li < vLRU {
			victim, vLRU = i, li
		}
	}
	c.clock++
	keys[victim] = key
	lrus[victim] = c.clock
	c.entries[base+victim] = e
}

// InsertNew is Insert for callers that know the key is not in the set —
// every fill that follows a missed lookup of the same key. The victim is
// then the first invalid way if any, else the LRU way: exactly what
// Insert selects when its key-match scan cannot fire, so the two are
// interchangeable whenever the key is absent. Skipping the match scan
// keeps the probe loop to one array and lets it stop at the first free
// way. Like Insert, it overwrites the victim without reading it.
//
//tlbvet:hotpath
func (c *Cache) InsertNew(set int, key uint64, e Entry) {
	base := set * c.ways
	lrus := c.lrus[base : base+c.ways : base+c.ways]
	victim := 0
	vLRU := lrus[0]
	if vLRU != 0 {
		for i := 1; i < len(lrus); i++ {
			li := lrus[i]
			if li == 0 {
				victim, vLRU = i, 0
				break
			}
			if li < vLRU {
				victim, vLRU = i, li
			}
		}
	}
	c.clock++
	c.keys[base+victim] = key
	lrus[victim] = c.clock
	c.entries[base+victim] = e
}

// Invalidate removes the entry with the given key from the set, reporting
// whether it was present.
func (c *Cache) Invalidate(set int, key uint64) bool {
	base := set * c.ways
	keys := c.keys[base : base+c.ways : base+c.ways]
	for i := range keys {
		if keys[i] == key && c.lrus[base+i] != 0 {
			keys[i] = 0
			c.lrus[base+i] = 0
			c.entries[base+i] = Entry{}
			return true
		}
	}
	return false
}

// InvalidateCluster removes every KindCluster entry of the set whose
// block base is block and returns how many were removed (the targeted
// shootdown of coalesced entries, which no exact key addresses).
func (c *Cache) InvalidateCluster(set int, block mem.VPN) int {
	base := set * c.ways
	lrus := c.lrus[base : base+c.ways : base+c.ways]
	entries := c.entries[base : base+c.ways : base+c.ways]
	n := 0
	for i := range lrus {
		if lrus[i] != 0 && entries[i].Kind == KindCluster && entries[i].VPNBase == block {
			c.keys[base+i] = 0
			lrus[i] = 0
			entries[i] = Entry{}
			n++
		}
	}
	return n
}

// Flush empties the cache (whole-TLB shootdown, as the OS performs after an
// anchor distance change).
func (c *Cache) Flush() {
	clear(c.keys)
	clear(c.lrus)
	clear(c.entries)
}

// Occupancy returns the number of valid entries, optionally filtered by
// kind (pass nil for all). Used by utilization statistics and tests.
func (c *Cache) Occupancy(want func(Entry) bool) int {
	n := 0
	for i, lru := range c.lrus {
		if lru != 0 && (want == nil || want(c.entries[i])) {
			n++
		}
	}
	return n
}
