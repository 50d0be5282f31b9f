package server

import (
	"fmt"
	"testing"

	"hybridtlb"
)

// Scheduler invariants are proven clock-free: the scheduler is a pure
// structure, so fairness claims reduce to assertions over pop()
// sequences — no sleeps, no goroutines, no wall time.

// schedJob builds a queued job for tenant with the given cell cost and
// priority.
func schedJob(tenant string, cells int, prio Priority) *job {
	cfgs := make([]hybridtlb.SimulationConfig, cells)
	return &job{
		id:       fmt.Sprintf("%s-%d", tenant, cells),
		configs:  cfgs,
		tenant:   tenant,
		priority: prio,
		state:    JobQueued,
	}
}

func popTenants(s *scheduler, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		j := s.pop()
		if j == nil {
			break
		}
		out = append(out, j.tenant)
	}
	return out
}

func countByTenant(seq []string) map[string]int {
	out := make(map[string]int)
	for _, t := range seq {
		out[t]++
	}
	return out
}

// TestFairShareSaturatingTenantCannotStarve is the headline isolation
// invariant: tenant A saturates its queue with unit jobs; tenant B then
// enqueues a single job of cost c. Under equal weights, B's job must
// dispatch after at most c more grants to A — the deficit share —
// regardless of how deep A's backlog is.
func TestFairShareSaturatingTenantCannotStarve(t *testing.T) {
	for _, c := range []int{1, 4, 16} {
		s := newScheduler(0)
		s.addTenant("a", 1)
		s.addTenant("b", 1)
		for i := 0; i < 500; i++ {
			if err := s.push(schedJob("a", 1, PriorityBatch)); err != nil {
				t.Fatal(err)
			}
		}
		// A's backlog is already draining before B shows up.
		for i := 0; i < 7; i++ {
			s.pop()
		}
		if err := s.push(schedJob("b", c, PriorityBatch)); err != nil {
			t.Fatal(err)
		}
		aGrantsBeforeB := 0
		for {
			j := s.pop()
			if j == nil {
				t.Fatalf("cost %d: scheduler drained without serving b", c)
			}
			if j.tenant == "b" {
				break
			}
			aGrantsBeforeB++
		}
		// Each ring pass grants A weight(=1) cell and credits B one
		// deficit point; B's cost-c job needs c passes, so A can slip
		// in at most c unit jobs (±1 for the pass in progress).
		if aGrantsBeforeB > c+1 {
			t.Fatalf("cost %d: saturating tenant ran %d jobs before b's single job; weight share allows at most %d",
				c, aGrantsBeforeB, c+1)
		}
	}
}

// TestFairShareWeightProportion: with both tenants saturating unit
// jobs, grants converge to the exact weight ratio.
func TestFairShareWeightProportion(t *testing.T) {
	s := newScheduler(0)
	s.addTenant("light", 3)
	s.addTenant("heavy", 1)
	for i := 0; i < 200; i++ {
		if err := s.push(schedJob("light", 1, PriorityBatch)); err != nil {
			t.Fatal(err)
		}
		if err := s.push(schedJob("heavy", 1, PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	got := countByTenant(popTenants(s, 200))
	if got["light"] != 150 || got["heavy"] != 50 {
		t.Fatalf("200 grants split %v; want light=150 heavy=50 (3:1 weights)", got)
	}
}

// TestFairShareCostsInCells: fairness is costed in sweep cells, not
// jobs — a tenant submitting 8-cell sweeps gets one grant for every
// eight unit grants of an equal-weight tenant.
func TestFairShareCostsInCells(t *testing.T) {
	s := newScheduler(0)
	s.addTenant("bulk", 1)
	s.addTenant("fine", 1)
	for i := 0; i < 40; i++ {
		if err := s.push(schedJob("bulk", 8, PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 320; i++ {
		if err := s.push(schedJob("fine", 1, PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	seq := popTenants(s, 90)
	got := countByTenant(seq)
	// 90 grants ≈ 10 bulk (80 cells) + 80 fine (80 cells).
	if got["bulk"] < 9 || got["bulk"] > 11 {
		t.Fatalf("bulk got %d of 90 grants (%v); cell-costed fairness expects ~10", got["bulk"], got)
	}
}

// TestFairSharePriorityWithinTenant: interactive jobs overtake the
// same tenant's batch backlog but never another tenant's share.
func TestFairSharePriorityWithinTenant(t *testing.T) {
	s := newScheduler(0)
	s.addTenant("a", 1)
	s.addTenant("b", 1)
	for i := 0; i < 10; i++ {
		if err := s.push(schedJob("a", 1, PriorityBatch)); err != nil {
			t.Fatal(err)
		}
		if err := s.push(schedJob("b", 1, PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	urgent := schedJob("a", 1, PriorityInteractive)
	if err := s.push(urgent); err != nil {
		t.Fatal(err)
	}

	var aJobs []*job
	bSeen := 0
	for {
		j := s.pop()
		if j == nil {
			break
		}
		if j.tenant == "a" {
			aJobs = append(aJobs, j)
		} else {
			bSeen++
		}
	}
	if len(aJobs) == 0 || aJobs[0] != urgent {
		t.Fatal("interactive job did not overtake the tenant's batch backlog")
	}
	if bSeen != 10 {
		t.Fatalf("tenant b lost grants to a's interactive job: served %d of 10", bSeen)
	}
}

// TestSchedulerPerTenantBound: the depth bound is per tenant; one
// tenant filling its queue does not consume another's room.
func TestSchedulerPerTenantBound(t *testing.T) {
	s := newScheduler(3)
	s.addTenant("a", 1)
	s.addTenant("b", 1)
	for i := 0; i < 3; i++ {
		if err := s.push(schedJob("a", 1, PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.push(schedJob("a", 1, PriorityBatch)); err != errQueueFull {
		t.Fatalf("4th push for a = %v, want errQueueFull", err)
	}
	if err := s.push(schedJob("b", 1, PriorityBatch)); err != nil {
		t.Fatalf("b's first push refused while a is full: %v", err)
	}
	if s.tenantDepth("a") != 3 || s.tenantDepth("b") != 1 || s.len() != 4 {
		t.Fatalf("depths a=%d b=%d total=%d", s.tenantDepth("a"), s.tenantDepth("b"), s.len())
	}
}

// TestSchedulerIdleTenantBanksNoCredit: classic DRR — deficit resets
// when a tenant drains, so an idle tenant cannot save up credit and
// later burst past its weight share.
func TestSchedulerIdleTenantBanksNoCredit(t *testing.T) {
	s := newScheduler(0)
	s.addTenant("a", 1)
	s.addTenant("b", 1)
	if err := s.push(schedJob("b", 1, PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	if j := s.pop(); j == nil || j.tenant != "b" {
		t.Fatal("lone job should dispatch immediately")
	}
	// b drained; many scheduler rounds pass serving a.
	for i := 0; i < 50; i++ {
		if err := s.push(schedJob("a", 1, PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	popTenants(s, 50)
	// b returns with a large job: it must wait its share, not burst.
	if err := s.push(schedJob("b", 4, PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.push(schedJob("a", 1, PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	seq := popTenants(s, 5)
	for _, tn := range seq[:3] {
		if tn == "b" {
			t.Fatalf("idle tenant banked credit: grant sequence %v dispatched b's 4-cell job before 4 passes", seq)
		}
	}
}

// TestSchedulerRemove drops a queued job without dispatching it.
func TestSchedulerRemove(t *testing.T) {
	s := newScheduler(0)
	s.addTenant("a", 1)
	j1 := schedJob("a", 1, PriorityBatch)
	j2 := schedJob("a", 1, PriorityBatch)
	if err := s.push(j1); err != nil {
		t.Fatal(err)
	}
	if err := s.push(j2); err != nil {
		t.Fatal(err)
	}
	if !s.remove(j1) {
		t.Fatal("remove(j1) = false")
	}
	if s.remove(j1) {
		t.Fatal("second remove(j1) = true")
	}
	if got := s.pop(); got != j2 {
		t.Fatalf("pop = %v, want j2", got)
	}
	if s.pop() != nil || s.len() != 0 {
		t.Fatal("scheduler not empty after remove+pop")
	}
}

// TestSchedulerUnknownTenantLazyAdd: a job for a tenant the scheduler
// has not seen (journal recovery of a tenant since removed from the
// keyfile) is accepted at weight 1 rather than dropped.
func TestSchedulerUnknownTenantLazyAdd(t *testing.T) {
	s := newScheduler(0)
	if err := s.push(schedJob("ghost", 1, PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	if j := s.pop(); j == nil || j.tenant != "ghost" {
		t.Fatal("lazily added tenant's job not dispatched")
	}
}
