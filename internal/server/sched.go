package server

// Fair-share job scheduling. The pre-tenancy server drained one FIFO:
// whoever submitted fastest owned the worker pool, and a single hostile
// caller could starve everyone else — the software analogue of the
// failure the paper's per-process HWval registers exist to prevent (one
// process's contiguity state never pollutes another's). The scheduler
// here gives every tenant its own bounded queue and drains them with
// deficit round robin weighted by the keyfile's fair-share weights,
// costed in sweep cells so a tenant cannot buy priority by packing its
// work into bigger jobs.
//
// The structure is deliberately pure — no clocks, no goroutines, no
// channels — so the fairness invariants are provable with plain
// sequential tests. The queue wrapper owns all locking.

// Priority orders jobs within one tenant's queue. Two levels only:
// interactive work (small exploratory sweeps a human is waiting on)
// overtakes batch work of the same tenant. Priorities are deliberately
// per-tenant, not global — a global priority lane would let one tenant
// starve another by marking everything urgent, which is exactly the
// isolation failure tenancy exists to prevent.
type Priority int

const (
	// PriorityInteractive jumps the tenant's own batch backlog.
	PriorityInteractive Priority = iota
	// PriorityBatch is the default lane.
	PriorityBatch
	numPriorities
)

// ParsePriority maps the wire spelling to a Priority; empty means
// batch.
func ParsePriority(s string) (Priority, bool) {
	switch s {
	case "interactive":
		return PriorityInteractive, true
	case "", "batch":
		return PriorityBatch, true
	}
	return PriorityBatch, false
}

// String returns the wire spelling.
func (p Priority) String() string {
	if p == PriorityInteractive {
		return "interactive"
	}
	return "batch"
}

// schedTenant is one tenant's pending work: a FIFO per priority plus
// the tenant's deficit-round-robin bookkeeping.
type schedTenant struct {
	name    string
	weight  int
	queues  [numPriorities][]*job
	depth   int
	deficit int
	// charged marks that the tenant already received its quantum for
	// the current ring visit, so serving several jobs in one visit does
	// not re-credit it.
	charged bool
}

func (t *schedTenant) empty() bool { return t.depth == 0 }

func (t *schedTenant) head() *job {
	for p := range t.queues {
		if len(t.queues[p]) > 0 {
			return t.queues[p][0]
		}
	}
	return nil
}

func (t *schedTenant) popHead() *job {
	for p := range t.queues {
		if len(t.queues[p]) > 0 {
			j := t.queues[p][0]
			t.queues[p] = t.queues[p][1:]
			t.depth--
			return j
		}
	}
	return nil
}

// scheduler is the weighted fair queue over tenants. Not safe for
// concurrent use; the queue serializes access.
type scheduler struct {
	tenants map[string]*schedTenant
	// ring holds the names of tenants with queued work, visited round
	// robin; cursor indexes the tenant currently being served.
	ring   []string
	cursor int
	depth  int
	// perTenantDepth bounds each tenant's queue; push fails with
	// errQueueFull past it. <= 0: unbounded.
	perTenantDepth int
}

func newScheduler(perTenantDepth int) *scheduler {
	return &scheduler{
		tenants:        make(map[string]*schedTenant),
		perTenantDepth: perTenantDepth,
	}
}

// jobCost is the fairness unit: sweep cells, not jobs, so a tenant
// submitting 1000-cell sweeps competes on equal terms with one
// submitting single cells.
func jobCost(j *job) int {
	if n := len(j.configs); n > 1 {
		return n
	}
	return 1
}

// addTenant registers (or re-weights) a tenant. Idempotent; called
// lazily on first submission so registry-less servers get the implicit
// default tenant through the same path.
func (s *scheduler) addTenant(name string, weight int) {
	if weight <= 0 {
		weight = 1
	}
	if t, ok := s.tenants[name]; ok {
		t.weight = weight
		return
	}
	s.tenants[name] = &schedTenant{name: name, weight: weight}
}

// push enqueues a job on its tenant's priority FIFO. The tenant must
// have been added first.
func (s *scheduler) push(j *job) error {
	t := s.tenants[j.tenant]
	if t == nil {
		t = &schedTenant{name: j.tenant, weight: 1}
		s.tenants[j.tenant] = t
	}
	if s.perTenantDepth > 0 && t.depth >= s.perTenantDepth {
		return errQueueFull
	}
	if t.empty() {
		s.ring = append(s.ring, t.name)
	}
	t.queues[j.priority] = append(t.queues[j.priority], j)
	t.depth++
	s.depth++
	return nil
}

// pop returns the next job under deficit round robin, or nil when no
// work is queued. Each ring visit credits the tenant its weight in
// cells; a job dispatches when the tenant's accumulated deficit covers
// its cost, so over any contended window tenants drain cells in
// weight proportion regardless of job sizes, and a tenant's backlog
// can delay another tenant's queued job only by the weight share —
// never by the backlog's length.
func (s *scheduler) pop() *job {
	if s.depth == 0 {
		return nil
	}
	for {
		if s.cursor >= len(s.ring) {
			s.cursor = 0
		}
		t := s.tenants[s.ring[s.cursor]]
		if t.empty() {
			// Lazily drop drained tenants from the ring; an empty
			// tenant forfeits its deficit (classic DRR, so idle tenants
			// cannot bank credit and later burst past their share).
			t.deficit = 0
			t.charged = false
			s.ring = append(s.ring[:s.cursor], s.ring[s.cursor+1:]...)
			continue
		}
		if !t.charged {
			t.deficit += t.weight
			t.charged = true
		}
		head := t.head()
		if c := jobCost(head); c <= t.deficit {
			j := t.popHead()
			t.deficit -= c
			s.depth--
			if t.empty() {
				t.deficit = 0
				t.charged = false
				s.ring = append(s.ring[:s.cursor], s.ring[s.cursor+1:]...)
			}
			return j
		}
		// Not enough credit yet: move to the next tenant; the quantum
		// accrues again on the next visit.
		t.charged = false
		s.cursor++
	}
}

// remove deletes a specific job from its tenant's queue (used when a
// queued job is being discarded without running). Reports whether the
// job was found.
func (s *scheduler) remove(j *job) bool {
	t := s.tenants[j.tenant]
	if t == nil {
		return false
	}
	for p := range t.queues {
		for i, q := range t.queues[p] {
			if q == j {
				t.queues[p] = append(t.queues[p][:i], t.queues[p][i+1:]...)
				t.depth--
				s.depth--
				return true
			}
		}
	}
	return false
}

// len returns the total queued jobs across tenants.
func (s *scheduler) len() int { return s.depth }

// tenantDepth returns one tenant's queued jobs (for admission messages
// and metrics).
func (s *scheduler) tenantDepth(name string) int {
	if t, ok := s.tenants[name]; ok {
		return t.depth
	}
	return 0
}

// depths snapshots every known tenant's queue depth for the metrics
// scrape (bounded by the keyfile plus the implicit default tenant).
func (s *scheduler) depths() map[string]int {
	out := make(map[string]int, len(s.tenants))
	for name, t := range s.tenants {
		out[name] = t.depth
	}
	return out
}
