// Package pagetable implements an x86-64-style four-level radix page table
// extended with the paper's anchored page table design (Section 3.1):
// every N-th page table entry can act as an anchor entry whose otherwise
// ignored bits record how many pages following the anchor are contiguously
// mapped in physical memory.
//
// The PTE bit layout follows Figure 4 of the paper: a present bit and the
// usual permission/accessed/dirty flags in the low bits, the page frame
// number in bits [12,52), eleven OS-available ("ignored") bits in [52,63),
// and NX in bit 63. Contiguity values wider than eleven bits use the
// paper's distributed encoding: the extra bits are stored in the ignored
// bits of the next entry of the same 64-byte PTE cache block, which the
// walker fetches for free.
package pagetable

import (
	"fmt"

	"hybridtlb/internal/mem"
)

// PTE is a single page table entry in the x86-64 bit layout.
type PTE uint64

// PTE flag bits.
const (
	FlagPresent  PTE = 1 << 0 // P: translation is valid
	FlagWrite    PTE = 1 << 1 // R/W: writable
	FlagUser     PTE = 1 << 2 // U/S: user accessible
	FlagAccessed PTE = 1 << 5 // A: set by hardware on access
	FlagDirty    PTE = 1 << 6 // D: set by hardware on write
	FlagHuge     PTE = 1 << 7 // PS: leaf at PD/PDPT level (2 MiB / 1 GiB page)
	FlagNX       PTE = 1 << 63

	// FlagMask selects all architectural flag bits of a PTE.
	FlagMask = FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagDirty | FlagHuge | FlagNX
)

const (
	pfnShift = 12
	pfnBits  = 40 // bits [12,52): frame number of a 4 KiB-granular frame
	pfnMask  = ((PTE(1) << pfnBits) - 1) << pfnShift

	ignShift = 52
	// IgnBits is the number of OS-available bits per PTE ([52,63)), the
	// per-entry budget for storing anchor contiguity (Fig. 4).
	IgnBits = 11
	ignMask = ((PTE(1) << IgnBits) - 1) << ignShift
)

// Present reports whether the entry holds a valid translation.
func (e PTE) Present() bool { return e&FlagPresent != 0 }

// Huge reports whether the entry is a large-page leaf (PS bit).
func (e PTE) Huge() bool { return e&FlagHuge != 0 }

// PFN extracts the physical frame number.
func (e PTE) PFN() mem.PFN { return mem.PFN((e & pfnMask) >> pfnShift) }

// MaxPFN is the largest representable frame number: the PTE frame field
// spans bits [12,52), matching the paper's 2^52-byte physical address
// maximum (Fig. 4).
const MaxPFN mem.PFN = 1<<pfnBits - 1

// WithPFN returns the entry with its frame number replaced. It panics on
// frame numbers beyond the architectural field width — silent truncation
// would alias distinct frames.
func (e PTE) WithPFN(p mem.PFN) PTE {
	if p > MaxPFN {
		panic(pfnOverflow(uint64(p)))
	}
	return (e &^ pfnMask) | (PTE(p) << pfnShift & pfnMask)
}

// pfnOverflow is the panic message for frame p, which the field cannot
// hold.
func pfnOverflow(p uint64) string {
	return fmt.Sprintf("pagetable: PFN %#x exceeds the %d-bit frame field", p, pfnBits)
}

// Ign extracts the OS-available ignored-bit field.
func (e PTE) Ign() uint64 { return uint64((e & ignMask) >> ignShift) }

// WithIgn returns the entry with the ignored-bit field replaced.
// Only the low IgnBits bits of v are stored.
func (e PTE) WithIgn(v uint64) PTE {
	return (e &^ ignMask) | (PTE(v) << ignShift & ignMask)
}

// Flags returns only the architectural flag bits.
func (e PTE) Flags() PTE { return e & FlagMask }
