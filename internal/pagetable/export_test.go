package pagetable

import "hybridtlb/internal/mem"

// Poison sets every entry of every slab on l to all ones, so a leaf
// carved from one reads as garbage until it is written.
func Poison(l *Leaves) {
	for _, s := range l.free {
		for i := range s {
			for k := range s[i] {
				s[i][k] = ^PTE(0)
			}
		}
	}
}

// FreeSlabs is how many slabs l holds.
func FreeSlabs(l *Leaves) int { return len(l.free) }

// Dump is every entry of a table below its PDPT tables: each PD entry
// that is set (a leaf link holding the leaf's frame, or a 2 MiB
// mapping), keyed by the PD table's first page and index, and each
// leaf's 512 entries, keyed by the leaf's first page.
type Dump struct {
	PD     map[mem.VPN]PTE
	Leaves map[mem.VPN][entriesPerNode]PTE
}

// DumpTable lists t's PD entries and leaves.
func DumpTable(t *Table) Dump {
	d := Dump{PD: make(map[mem.VPN]PTE), Leaves: make(map[mem.VPN][entriesPerNode]PTE)}
	for i4, pdpt := range &t.root.child {
		if pdpt == nil {
			continue
		}
		for i3, pd := range &pdpt.child {
			if pd == nil {
				continue
			}
			for i2, e := range &pd.pte {
				vpn := mem.VPN(i4)<<27 | mem.VPN(i3)<<18 | mem.VPN(i2)<<9
				if e != 0 {
					d.PD[vpn] = e
				}
				if lf := pd.child[i2]; lf != nil {
					d.Leaves[vpn] = *lf
				}
			}
		}
	}
	return d
}
