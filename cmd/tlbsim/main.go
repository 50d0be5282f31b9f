// Command tlbsim runs one (scheme × workload × mapping) simulation and
// prints the paper's metrics for it: TLB miss counts, the L2 access
// breakdown, and the translation CPI split.
//
// Example:
//
//	tlbsim -scheme anchor -workload gups -mapping medium -accesses 1000000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hybridtlb"
	"hybridtlb/internal/buildinfo"
)

func main() {
	var (
		scheme      = flag.String("scheme", "anchor", "translation scheme: "+strings.Join(hybridtlb.Schemes(), ", "))
		wl          = flag.String("workload", "gups", "benchmark: "+strings.Join(hybridtlb.Workloads(), ", "))
		scenario    = flag.String("mapping", "demand", "mapping scenario: "+strings.Join(hybridtlb.Scenarios(), ", "))
		accesses    = flag.Uint64("accesses", 1_000_000, "measured memory accesses (plus 10% warmup)")
		footprint   = flag.Uint64("footprint", 0, "footprint in 4KiB pages (0: workload default)")
		seed        = flag.Int64("seed", 42, "random seed for mapping and workload")
		pressure    = flag.Float64("pressure", 0, "background fragmentation in [0,1] (demand/eager)")
		distance    = flag.Uint64("distance", 0, "pin the anchor distance (0: dynamic selection)")
		static      = flag.Bool("static-ideal", false, "exhaustively search all anchor distances and report the best")
		costModel   = flag.String("cost-model", "", "distance selection cost model: entry-count (default), coverage-weighted, capacity-aware")
		regions     = flag.Bool("multi-region", false, "per-region anchor distances (Section 4.2 extension)")
		tracePath   = flag.String("trace", "", "replay a recorded trace file (see tracegen; format auto-detected) instead of generating accesses")
		epochs      = flag.Bool("epochs", false, "print one line per epoch boundary to stderr (cumulative stats, anchor distance)")
		epochInstrs = flag.Uint64("epoch-instrs", 0, "epoch length in instructions (0: the paper's 10,000,000)")
		showVersion = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.Version())
		return
	}

	cfg := hybridtlb.SimulationConfig{
		Scheme:              *scheme,
		Workload:            *wl,
		Scenario:            *scenario,
		Accesses:            *accesses,
		FootprintPages:      *footprint,
		Seed:                *seed,
		Pressure:            *pressure,
		FixedAnchorDistance: *distance,
		CostModel:           *costModel,
		MultiRegionAnchors:  *regions,
		TracePath:           *tracePath,
		EpochInstructions:   *epochInstrs,
	}
	if *epochs {
		cfg.Probe = func(s hybridtlb.EpochSample) {
			fmt.Fprintf(os.Stderr, "epoch %3d  %12d instrs  %12d accesses  %10d misses",
				s.Epoch, s.Instructions, s.Stats.Accesses, s.Stats.Misses)
			if s.AnchorDistance > 0 {
				fmt.Fprintf(os.Stderr, "  d=%d", s.AnchorDistance)
			}
			fmt.Fprintln(os.Stderr)
		}
	}

	// Ctrl-C cancels cleanly at simulation boundaries (between the
	// static-ideal distance probes) instead of killing mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res hybridtlb.SimulationResult
	var err error
	if *static {
		res, err = hybridtlb.SimulateStaticIdealContext(ctx, cfg)
	} else {
		res, err = hybridtlb.SimulateContext(ctx, cfg)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "tlbsim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "tlbsim:", err)
		os.Exit(1)
	}

	fmt.Printf("scheme        %s\n", res.Scheme)
	fmt.Printf("workload      %s\n", res.Workload)
	fmt.Printf("mapping       %s (%d chunks, %d huge pages)\n", res.Scenario, res.Chunks, res.HugePages)
	if res.AnchorDistance > 1 {
		fmt.Printf("anchor dist.  %d pages\n", res.AnchorDistance)
	}
	fmt.Printf("accesses      %d (%d instructions)\n", res.Stats.Accesses, res.Instructions)
	fmt.Printf("L1 hits       %d (%.1f%%)\n", res.Stats.L1Hits, pct(res.Stats.L1Hits, res.Stats.Accesses))
	fmt.Printf("L2 reg. hits  %d\n", res.Stats.L2RegularHits)
	fmt.Printf("coalesced     %d\n", res.Stats.CoalescedHits)
	fmt.Printf("TLB misses    %d (%.1f per 1M instructions)\n", res.Stats.Misses, res.MissesPerMillionInstructions())
	fmt.Printf("L2 breakdown  %.1f%% regular / %.1f%% coalesced / %.1f%% miss\n",
		res.L2RegularHitFraction*100, res.L2CoalescedHitFraction*100, res.L2MissFraction*100)
	fmt.Printf("transl. CPI   %.4f (%.4f L2-hit + %.4f coalesced + %.4f walk)\n",
		res.TranslationCPI, res.CPIRegularHit, res.CPICoalescedHit, res.CPIWalk)
}

func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}
