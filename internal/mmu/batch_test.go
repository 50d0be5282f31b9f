package mmu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
)

// TestTranslateBatchMatchesTranslate drives the same VPN sequence
// through two identically built MMUs per scheme — one record at a time
// and one in deliberately irregular batch slices — and demands identical
// Stats and (for the anchor scheme) identical Table 2 action counts.
// It pins TranslateBatch to Translate in a loop at the MMU layer, apart
// from the drive-loop segmentation that internal/sim's equivalence
// suite covers.
func TestTranslateBatchMatchesTranslate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	cl := randomChunks(r, 40, 700)
	span := uint64(cl[len(cl)-1].StartVPN+mem.VPN(cl[len(cl)-1].Pages)) - uint64(cl[0].StartVPN)

	vpns := make([]mem.VPN, 20_000)
	for i := range vpns {
		// Mostly mapped pages with a sprinkling of unmapped ones so the
		// fault paths are exercised too.
		vpns[i] = cl[0].StartVPN + mem.VPN(r.Uint64()%(span+64))
	}

	sizes := []int{1, 3, 17, 64, 255, 4096}
	for _, scheme := range All() {
		t.Run(scheme.String(), func(t *testing.T) {
			_, serial := buildProc(t, scheme, cl, 64)
			for _, vpn := range vpns {
				serial.Translate(vpn)
			}

			_, batched := buildProc(t, scheme, cl, 64)
			si := 0
			for off := 0; off < len(vpns); {
				n := sizes[si%len(sizes)]
				si++
				if off+n > len(vpns) {
					n = len(vpns) - off
				}
				batched.TranslateBatch(vpns[off : off+n])
				off += n
			}

			if serial.Stats() != batched.Stats() {
				t.Errorf("stats diverged:\nserial:  %+v\nbatched: %+v", serial.Stats(), batched.Stats())
			}
			type actioned interface {
				Actions() map[core.L2Action]uint64
			}
			sa, sok := serial.(actioned)
			ba, bok := batched.(actioned)
			if sok != bok {
				t.Fatalf("action reporting mismatch: serial %v, batched %v", sok, bok)
			}
			if sok && !reflect.DeepEqual(sa.Actions(), ba.Actions()) {
				t.Errorf("anchor actions diverged:\nserial:  %v\nbatched: %v", sa.Actions(), ba.Actions())
			}
		})
	}
}

// TestTranslateBatchEmpty checks the degenerate slices are harmless.
func TestTranslateBatchEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cl := randomChunks(r, 4, 64)
	for _, scheme := range All() {
		t.Run(fmt.Sprint(scheme), func(t *testing.T) {
			_, m := buildProc(t, scheme, cl, 64)
			m.TranslateBatch(nil)
			m.TranslateBatch([]mem.VPN{})
			if s := m.Stats(); s != (Stats{}) {
				t.Errorf("empty batch mutated stats: %+v", s)
			}
		})
	}
}
