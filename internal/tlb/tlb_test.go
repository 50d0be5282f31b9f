package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hybridtlb/internal/mem"
)

func TestNewCacheValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCache(0, 4) },
		func() { NewCache(3, 4) }, // non power of two
		func() { NewCache(8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	c := NewCache(128, 8)
	if c.Sets() != 128 || c.Ways() != 8 || c.Entries() != 1024 || c.SetMask() != 127 {
		t.Error("geometry accessors wrong")
	}
}

func TestLookupInsertBasic(t *testing.T) {
	c := NewCache(4, 2)
	k := Key(Kind4K, 0x42)
	if _, ok := c.Lookup(1, k); ok {
		t.Fatal("hit in empty cache")
	}
	e := Entry{Kind: Kind4K, VPNBase: 0x42, PFNBase: 0x99}
	c.Insert(1, k, e)
	got, ok := c.Lookup(1, k)
	if !ok || got != e {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
	// Same key, different set: miss.
	if _, ok := c.Lookup(2, k); ok {
		t.Error("hit in wrong set")
	}
	// Same tag, different kind: miss.
	if _, ok := c.Lookup(1, Key(KindAnchor, 0x42)); ok {
		t.Error("kind aliasing")
	}
}

func TestKeyDisambiguatesKinds(t *testing.T) {
	f := func(tag uint64) bool {
		tag &= (1 << 60) - 1
		seen := map[uint64]bool{}
		for k := EntryKind(0); k < numKinds; k++ {
			key := Key(k, tag)
			if seen[key] {
				return false
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewCache(1, 2)
	c.Insert(0, Key(Kind4K, 1), Entry{VPNBase: 1})
	c.Insert(0, Key(Kind4K, 2), Entry{VPNBase: 2})
	// Touch 1, making 2 the LRU.
	if _, ok := c.Lookup(0, Key(Kind4K, 1)); !ok {
		t.Fatal("entry 1 missing")
	}
	c.Insert(0, Key(Kind4K, 3), Entry{VPNBase: 3})
	if _, ok := c.Lookup(0, Key(Kind4K, 1)); !ok {
		t.Error("MRU entry 1 evicted")
	}
	if _, ok := c.Lookup(0, Key(Kind4K, 2)); ok {
		t.Error("LRU entry 2 still present")
	}
}

func TestInsertOverwritesInPlace(t *testing.T) {
	c := NewCache(1, 4)
	k := Key(Kind4K, 7)
	c.Insert(0, k, Entry{PFNBase: 1})
	c.Insert(0, k, Entry{PFNBase: 2})
	got, _ := c.Lookup(0, k)
	if got.PFNBase != 2 {
		t.Errorf("PFNBase = %d, want 2", got.PFNBase)
	}
	if c.Occupancy(nil) != 1 {
		t.Errorf("occupancy = %d, want 1", c.Occupancy(nil))
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := NewCache(2, 2)
	c.Insert(0, Key(Kind4K, 1), Entry{})
	c.Insert(1, Key(Kind2M, 2), Entry{Kind: Kind2M})
	if !c.Invalidate(0, Key(Kind4K, 1)) {
		t.Error("invalidate of present entry failed")
	}
	if c.Invalidate(0, Key(Kind4K, 1)) {
		t.Error("invalidate of absent entry succeeded")
	}
	if c.Occupancy(nil) != 1 {
		t.Errorf("occupancy = %d", c.Occupancy(nil))
	}
	if c.Occupancy(func(e Entry) bool { return e.Kind == Kind2M }) != 1 {
		t.Error("filtered occupancy wrong")
	}
	c.Flush()
	if c.Occupancy(nil) != 0 {
		t.Error("flush left entries behind")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := NewCache(1, 2)
	c.Insert(0, Key(Kind4K, 1), Entry{VPNBase: 1})
	c.Insert(0, Key(Kind4K, 2), Entry{VPNBase: 2})
	// Peek at 1 (the LRU); it must remain the LRU.
	if _, ok := c.Peek(0, Key(Kind4K, 1)); !ok {
		t.Fatal("peek missed")
	}
	c.Insert(0, Key(Kind4K, 3), Entry{VPNBase: 3})
	if _, ok := c.Peek(0, Key(Kind4K, 1)); ok {
		t.Error("peek promoted the entry")
	}
}

// TestLRUStackProperty: with a single set of W ways, after any sequence of
// inserts the W most recently used distinct keys are exactly the residents.
func TestLRUStackProperty(t *testing.T) {
	f := func(refs []uint8) bool {
		const ways = 4
		c := NewCache(1, ways)
		var stack []uint64 // MRU first
		for _, r := range refs {
			key := Key(Kind4K, uint64(r%16))
			if _, ok := c.Lookup(0, key); !ok {
				c.Insert(0, key, Entry{VPNBase: mem.VPN(r)})
			}
			// Maintain reference LRU stack.
			for i, k := range stack {
				if k == key {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
			stack = append([]uint64{key}, stack...)
			if len(stack) > ways {
				stack = stack[:ways]
			}
		}
		for _, k := range stack {
			if _, ok := c.Peek(0, k); !ok {
				return false
			}
		}
		return c.Occupancy(nil) == len(stack)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRangeTLBBasic(t *testing.T) {
	rt := NewRangeTLB(2)
	if rt.Capacity() != 2 {
		t.Error("capacity wrong")
	}
	rt.Insert(RangeEntry{StartVPN: 100, StartPFN: 1000, Pages: 50})
	r, ok := rt.Lookup(120)
	if !ok || r.Translate(120) != 1020 {
		t.Fatalf("lookup = %+v, %v", r, ok)
	}
	if _, ok := rt.Lookup(150); ok {
		t.Error("hit past range end")
	}
	if _, ok := rt.Lookup(99); ok {
		t.Error("hit before range start")
	}
}

func TestRangeTLBLRU(t *testing.T) {
	rt := NewRangeTLB(2)
	rt.Insert(RangeEntry{StartVPN: 0, Pages: 10})
	rt.Insert(RangeEntry{StartVPN: 100, Pages: 10})
	rt.Lookup(5) // promote range 0
	rt.Insert(RangeEntry{StartVPN: 200, Pages: 10})
	if _, ok := rt.Lookup(105); ok {
		t.Error("LRU range survived eviction")
	}
	if _, ok := rt.Lookup(5); !ok {
		t.Error("MRU range evicted")
	}
	if _, ok := rt.Lookup(205); !ok {
		t.Error("new range missing")
	}
}

func TestRangeTLBReplaceSameStart(t *testing.T) {
	rt := NewRangeTLB(4)
	rt.Insert(RangeEntry{StartVPN: 0, StartPFN: 10, Pages: 5})
	rt.Insert(RangeEntry{StartVPN: 0, StartPFN: 20, Pages: 8})
	if rt.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", rt.Occupancy())
	}
	r, _ := rt.Lookup(7)
	if r.StartPFN != 20 {
		t.Error("replacement did not take effect")
	}
	rt.Flush()
	if rt.Occupancy() != 0 {
		t.Error("flush failed")
	}
}

func TestRangeTLBValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewRangeTLB(0)
}

func TestCacheRandomizedVsMap(t *testing.T) {
	// The cache with huge associativity behaves as a plain map.
	c := NewCache(1, 4096)
	ref := make(map[uint64]Entry)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		tag := uint64(r.Intn(2048))
		key := Key(Kind4K, tag)
		switch r.Intn(3) {
		case 0:
			e := Entry{VPNBase: mem.VPN(tag), PFNBase: mem.PFN(r.Intn(1 << 20))}
			c.Insert(0, key, e)
			ref[key] = e
		case 1:
			got, ok := c.Lookup(0, key)
			want, wok := ref[key]
			if ok != wok || (ok && got != want) {
				t.Fatalf("iter %d: lookup mismatch", i)
			}
		case 2:
			got := c.Invalidate(0, key)
			_, want := ref[key]
			if got != want {
				t.Fatalf("iter %d: invalidate mismatch", i)
			}
			delete(ref, key)
		}
	}
}

func BenchmarkCacheLookupHit(b *testing.B) {
	c := NewCache(128, 8)
	for i := 0; i < 1024; i++ {
		set := i & 127
		c.Insert(set, Key(Kind4K, uint64(i)), Entry{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(i&127, Key(Kind4K, uint64(i&1023)))
	}
}

func BenchmarkRangeTLBLookup(b *testing.B) {
	rt := NewRangeTLB(32)
	for i := 0; i < 32; i++ {
		rt.Insert(RangeEntry{StartVPN: mem.VPN(i * 1000), StartPFN: mem.PFN(i * 1000), Pages: 500})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Lookup(mem.VPN((i % 32) * 1000))
	}
}

func TestLookupCluster(t *testing.T) {
	c := NewCache(1, 4)
	c.Insert(0, Key(KindCluster, 1), Entry{Kind: KindCluster, VPNBase: 8, PFNBase: 100, Bitmap: 0x0F})
	c.Insert(0, Key(KindCluster, 2), Entry{Kind: KindCluster, VPNBase: 8, PFNBase: 200, Bitmap: 0xF0})
	c.Insert(0, Key(Kind4K, 3), Entry{Kind: Kind4K, VPNBase: 8, Bitmap: 0xFF})

	// Two cluster entries share a block; the offset's bitmap bit picks.
	e, ok := c.LookupCluster(0, 8, 6)
	if !ok || e.PFNBase != 200 {
		t.Fatalf("LookupCluster = %+v, %v", e, ok)
	}
	if _, ok := c.LookupCluster(0, 99, 0); ok {
		t.Error("probe of an absent block hit")
	}
	// LookupCluster promotes: the matched entry must survive two inserts.
	c.Insert(0, Key(Kind4K, 4), Entry{})
	c.Insert(0, Key(Kind4K, 5), Entry{})
	if _, ok := c.Peek(0, Key(KindCluster, 2)); !ok {
		t.Error("promoted entry evicted")
	}
}

func TestInvalidateCluster(t *testing.T) {
	c := NewCache(1, 4)
	c.Insert(0, Key(KindCluster, 1), Entry{Kind: KindCluster, VPNBase: 8})
	c.Insert(0, Key(KindCluster, 2), Entry{Kind: KindCluster, VPNBase: 8})
	c.Insert(0, Key(Kind4K, 3), Entry{Kind: Kind4K, VPNBase: 8})
	n := c.InvalidateCluster(0, 8)
	if n != 2 {
		t.Errorf("invalidated %d entries, want 2", n)
	}
	if c.Occupancy(nil) != 1 {
		t.Errorf("occupancy = %d, want 1", c.Occupancy(nil))
	}
	if n := c.InvalidateCluster(0, 16); n != 0 {
		t.Errorf("no-match invalidate removed %d", n)
	}
}

func TestRangeTLBInvalidateContaining(t *testing.T) {
	rt := NewRangeTLB(4)
	rt.Insert(RangeEntry{StartVPN: 0, StartPFN: 0, Pages: 100})
	rt.Insert(RangeEntry{StartVPN: 50, StartPFN: 500, Pages: 100}) // overlapping VPN 60
	rt.Insert(RangeEntry{StartVPN: 200, StartPFN: 900, Pages: 10})
	if n := rt.InvalidateContaining(60); n != 2 {
		t.Errorf("invalidated %d ranges, want 2", n)
	}
	if rt.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", rt.Occupancy())
	}
	if _, ok := rt.Lookup(205); !ok {
		t.Error("untouched range lost")
	}
	if n := rt.InvalidateContaining(9999); n != 0 {
		t.Errorf("miss invalidate removed %d", n)
	}
}
