package sim

import (
	"fmt"

	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/trace"
)

// This file simulates time-shared cores: several processes round-robin on
// one core, and — as the paper notes for native x86 Linux (Section 3.3:
// "the native Linux kernel for x86 flushes the TLB on context switches")
// — every context switch flushes the TLBs and reloads the per-process
// anchor distance register alongside CR3. Context switching is what makes
// the whole-TLB flush of an anchor distance change "relatively minor".

// MultiProcessConfig parameterizes a time-shared simulation.
type MultiProcessConfig struct {
	// Processes are the co-scheduled simulations. Each runs its own
	// mapping and workload; Accesses applies per process.
	Processes []Config
	// QuantumInstructions is the scheduling quantum (instructions
	// between context switches).
	QuantumInstructions uint64
	// ASID models address-space-identifier-tagged TLBs (x86 PCID): the
	// kernel skips the TLB flush on context switches because entries are
	// tagged with their address space. The paper's baseline is the
	// untagged native-Linux behaviour (flush every switch).
	ASID bool
}

// MultiProcessResult reports a time-shared simulation.
type MultiProcessResult struct {
	// PerProcess holds each process's result, in configuration order.
	PerProcess []Result
	// ContextSwitches counts scheduler dispatches after the first of
	// each process; every one flushed the TLBs.
	ContextSwitches uint64
	// TotalMisses sums L2 TLB misses across processes.
	TotalMisses uint64
}

// procState is one time-shared process's live state.
type procState struct {
	proc         *osmem.Process
	mmu          mmu.MMU
	gen          trace.Source
	instructions uint64
	done         bool
	res          Result
}

// RunMultiProcess time-shares the configured processes on one core.
func RunMultiProcess(cfg MultiProcessConfig) (MultiProcessResult, error) {
	if len(cfg.Processes) == 0 {
		return MultiProcessResult{}, fmt.Errorf("sim: no processes")
	}
	if cfg.QuantumInstructions == 0 {
		return MultiProcessResult{}, fmt.Errorf("sim: zero scheduling quantum")
	}

	states := make([]*procState, 0, len(cfg.Processes))
	for i, pc := range cfg.Processes {
		pc = pc.withDefaults()
		spec := MappingOf(pc)
		spec.Config.Seed += int64(i) // distinct mappings per process
		cl, err := spec.Generate()
		if err != nil {
			return MultiProcessResult{}, fmt.Errorf("sim: process %d mapping: %w", i, err)
		}
		pol := pc.Scheme.Policy()
		pol.Cost = pc.CostModel
		proc := osmem.NewProcess(pol)
		if err := proc.InstallChunks(cl, pc.FixedDistance); err != nil {
			return MultiProcessResult{}, fmt.Errorf("sim: process %d install: %w", i, err)
		}
		states = append(states, &procState{
			proc: proc,
			mmu:  mmu.New(pc.Scheme, pc.HW, proc),
			gen:  pc.Workload.NewGenerator(cl[0].StartVPN, pc.FootprintPages, pc.Accesses, pc.Seed+int64(i)),
			res: Result{
				Scheme:   pc.Scheme,
				Workload: pc.Workload.Name,
				Scenario: pc.Scenario,
				Chunks:   len(cl),
			},
		})
	}

	var out MultiProcessResult
	live := len(states)
	var dispatches uint64
	for cur := 0; live > 0; cur = (cur + 1) % len(states) {
		st := states[cur]
		if st.done {
			continue
		}
		// On dispatch the incoming process starts with cold TLBs unless
		// the TLBs are ASID-tagged: the kernel flushed on the switch and
		// restored CR3 plus the anchor distance register.
		if !cfg.ASID {
			st.mmu.Flush()
		}
		dispatches++

		var ranInQuantum uint64
		for ranInQuantum < cfg.QuantumInstructions {
			rec, ok := st.gen.Next()
			if !ok {
				st.done = true
				live--
				break
			}
			st.mmu.Translate(rec.VPN)
			st.instructions += uint64(rec.Instrs)
			ranInQuantum += uint64(rec.Instrs)
		}
	}

	for _, st := range states {
		st.res.Stats = st.mmu.Stats()
		st.res.Instructions = st.instructions
		st.res.AnchorDistance = st.proc.AnchorDistance()
		out.PerProcess = append(out.PerProcess, st.res)
		out.TotalMisses += st.res.Stats.Misses()
	}
	// The first dispatch of each process is creation, not a switch.
	out.ContextSwitches = dispatches - uint64(len(states))
	return out, nil
}
