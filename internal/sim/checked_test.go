package sim

import (
	"fmt"
	"reflect"
	"testing"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/trace"
)

// checkedMMU holds every translation the drive asks for to the
// process's mapping: its TranslateBatch calls Translate on each VPN and
// fails the test on a frame the mapping does not hold, a fault on a
// mapped page or a hit on an unmapped one.
type checkedMMU struct {
	mmu.MMU
	proc    *osmem.Process
	t       testing.TB
	checked uint64
}

func (c *checkedMMU) TranslateBatch(vpns []mem.VPN) {
	for _, vpn := range vpns {
		got := c.Translate(vpn)
		want, mapped := c.proc.Translate(vpn)
		switch {
		case mapped && got.Outcome == mmu.OutFault:
			c.t.Fatalf("access %d: fault on mapped page %#x", c.checked, uint64(vpn))
		case mapped && got.PFN != want:
			c.t.Fatalf("access %d: %v translated %#x to %#x, the mapping holds %#x",
				c.checked, got.Outcome, uint64(vpn), uint64(got.PFN), uint64(want))
		case !mapped && got.Outcome != mmu.OutFault:
			c.t.Fatalf("access %d: %v on unmapped page %#x", c.checked, got.Outcome, uint64(vpn))
		}
		c.checked++
	}
}

// TestCheckedDrive checks every translation drive serves, warmup
// included, against the mapping at the moment it is served: every scheme
// over every scenario with churn remapping 64 pages every 300
// instructions, and, without churn, dynamic re-selection, multi-region
// anchors and the detailed walk. The check must change nothing: each
// result equals the unwrapped Run's or RunWithChurn's.
func TestCheckedDrive(t *testing.T) {
	check := func(t *testing.T, cfg Config, churn *ChurnConfig) {
		t.Helper()
		var c *checkedMMU
		checkedDrive := func(m mmu.MMU, proc *osmem.Process, src trace.Source, cfg Config, ch *churner, res *Result) error {
			c = &checkedMMU{MMU: m, proc: proc, t: t}
			return drive(c, proc, src, cfg, ch, res)
		}
		got, gotChurn, err := run(cfg, Generated, churn, checkedDrive)
		if err != nil {
			t.Fatal(err)
		}
		var want Result
		var wantChurn ChurnStats
		if churn != nil {
			want, wantChurn, err = RunWithChurn(*churn)
		} else {
			want, err = Run(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || gotChurn != wantChurn {
			t.Errorf("checked run diverged:\nchecked: %+v %+v\nplain:   %+v %+v", got, gotChurn, want, wantChurn)
		}
		if d := cfg.withDefaults(); c.checked != d.WarmupAccesses+d.Accesses {
			t.Errorf("checked %d translations, want %d", c.checked, d.WarmupAccesses+d.Accesses)
		}
		if churn != nil && gotChurn.Operations == 0 {
			t.Error("no churn operation fired")
		}
	}
	for _, scheme := range mmu.All() {
		for _, scenario := range mapping.All() {
			t.Run(fmt.Sprintf("churn/%s/%s", scheme, scenario), func(t *testing.T) {
				cfg := equivCfg(t, scheme, scenario, "mcf")
				check(t, cfg, &ChurnConfig{Config: cfg, ChurnIntervalInstructions: 300, ChurnPages: 64})
			})
		}
		t.Run(fmt.Sprintf("detailed-walk/%s", scheme), func(t *testing.T) {
			cfg := equivCfg(t, scheme, mapping.Medium, "mcf")
			cfg.DetailedWalk = true
			check(t, cfg, nil)
		})
	}
	for _, scenario := range mapping.All() {
		t.Run(fmt.Sprintf("dynamic/%s", scenario), func(t *testing.T) {
			check(t, equivCfg(t, mmu.Anchor, scenario, "mcf"), nil)
		})
		t.Run(fmt.Sprintf("multi-region/%s", scenario), func(t *testing.T) {
			cfg := equivCfg(t, mmu.Anchor, scenario, "mcf")
			cfg.MultiRegionAnchors = true
			check(t, cfg, nil)
		})
	}
}
