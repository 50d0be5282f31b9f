package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"hybridtlb"
	"hybridtlb/internal/core"
)

// apiError is the structured error envelope every non-2xx response
// carries: a stable machine-readable code, a human message, and (for
// validation errors) the offending field.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

func (e *apiError) Error() string { return e.Message }

// Error codes returned in the envelope.
const (
	codeInvalidRequest  = "invalid_request"
	codeNotFound        = "not_found"
	codeOverloaded      = "overloaded"
	codeShuttingDown    = "shutting_down"
	codeTimeout         = "timeout"
	codeInternal        = "internal_error"
	codeConflict        = "conflict"
	codeGone            = "gone"
	codeUnauthenticated = "unauthenticated"
)

func invalidField(field, format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: codeInvalidRequest,
		Message: fmt.Sprintf(format, args...), Field: field}
}

// writeError emits the structured error envelope.
func writeError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.Status, struct {
		Error *apiError `json:"error"`
	}{e})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// decodeJSON parses a bounded request body strictly: unknown fields and
// trailing garbage are validation errors, not silent drops.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) *apiError {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &apiError{Status: http.StatusBadRequest, Code: codeInvalidRequest,
			Message: "malformed request body: " + err.Error()}
	}
	if dec.More() {
		return &apiError{Status: http.StatusBadRequest, Code: codeInvalidRequest,
			Message: "request body contains more than one JSON value"}
	}
	return nil
}

// maxFootprintPages caps footprint_pages: 8× the largest workload
// default (2^21 pages). Peak memory grows about 13.5 bytes per page, so
// a simulation at the cap needs about 225 MiB, while 2^30 pages would
// need about 14 GiB and kill the process.
const maxFootprintPages = 1 << 24

// Limits bound what one request may ask of the simulator.
type Limits struct {
	// MaxAccesses caps the measured accesses of a single simulation.
	MaxAccesses uint64
	// MaxSweepJobs caps the expanded grid size of one sweep request.
	MaxSweepJobs int
}

// SimulateRequest is the JSON body of POST /v1/simulate and the per-cell
// config echoed back in sweep results. Fields mirror
// hybridtlb.SimulationConfig; zero values take the library defaults
// (Table 3 hardware, workload-default footprint).
type SimulateRequest struct {
	Scheme              string  `json:"scheme"`
	Workload            string  `json:"workload"`
	Scenario            string  `json:"scenario"`
	Accesses            uint64  `json:"accesses,omitempty"`
	FootprintPages      uint64  `json:"footprint_pages,omitempty"`
	Seed                int64   `json:"seed,omitempty"`
	Pressure            float64 `json:"pressure,omitempty"`
	FixedAnchorDistance uint64  `json:"fixed_anchor_distance,omitempty"`
	CostModel           string  `json:"cost_model,omitempty"`
	MultiRegionAnchors  bool    `json:"multi_region_anchors,omitempty"`
	// Shards is deprecated and ignored: it once selected a shard-parallel
	// drive that has since been removed. It is still decoded so that old
	// clients' requests stay valid, and a negative value is still
	// rejected.
	Shards int `json:"shards,omitempty"`
	// StaticIdeal runs the exhaustive per-distance search instead of one
	// simulation (simulate endpoint only; ignored in sweeps).
	StaticIdeal bool `json:"static_ideal,omitempty"`
}

// validate checks every name against the library's registries and every
// scalar against the server's limits, so bad requests fail fast with a
// field-level error instead of deep in a worker.
func (req SimulateRequest) validate(lim Limits) *apiError {
	if req.Scheme == "" {
		return invalidField("scheme", "scheme is required (one of %v)", hybridtlb.Schemes())
	}
	if !knownName(hybridtlb.Schemes(), req.Scheme) {
		return invalidField("scheme", "unknown scheme %q (one of %v)", req.Scheme, hybridtlb.Schemes())
	}
	if req.Workload == "" {
		return invalidField("workload", "workload is required (one of %v)", hybridtlb.Workloads())
	}
	if !knownName(hybridtlb.Workloads(), req.Workload) {
		return invalidField("workload", "unknown workload %q (one of %v)", req.Workload, hybridtlb.Workloads())
	}
	if req.Scenario == "" {
		return invalidField("scenario", "scenario is required (one of %v)", hybridtlb.Scenarios())
	}
	if !knownName(hybridtlb.Scenarios(), req.Scenario) {
		return invalidField("scenario", "unknown scenario %q (one of %v)", req.Scenario, hybridtlb.Scenarios())
	}
	if _, err := core.ParseCostModel(req.CostModel); err != nil {
		return invalidField("cost_model", "%v", err)
	}
	if req.Pressure < 0 || req.Pressure > 1 {
		return invalidField("pressure", "pressure %g outside [0,1]", req.Pressure)
	}
	if lim.MaxAccesses > 0 && req.Accesses > lim.MaxAccesses {
		return invalidField("accesses", "accesses %d exceeds the server limit %d", req.Accesses, lim.MaxAccesses)
	}
	if req.FootprintPages > maxFootprintPages {
		return invalidField("footprint_pages", "footprint_pages %d exceeds the server limit %d", req.FootprintPages, maxFootprintPages)
	}
	if d := req.FixedAnchorDistance; d != 0 && !core.ValidDistance(d) {
		return invalidField("fixed_anchor_distance", "fixed_anchor_distance %d is not a power of two in [%d, %d]",
			d, core.MinDistance, core.MaxDistance)
	}
	if req.Shards < 0 {
		return invalidField("shards", "shards %d is negative", req.Shards)
	}
	return nil
}

func (req SimulateRequest) toConfig() hybridtlb.SimulationConfig {
	return hybridtlb.SimulationConfig{
		Scheme:              req.Scheme,
		Workload:            req.Workload,
		Scenario:            req.Scenario,
		Accesses:            req.Accesses,
		FootprintPages:      req.FootprintPages,
		Seed:                req.Seed,
		Pressure:            req.Pressure,
		FixedAnchorDistance: req.FixedAnchorDistance,
		CostModel:           req.CostModel,
		MultiRegionAnchors:  req.MultiRegionAnchors,
	}
}

// SweepRequest is the JSON body of POST /v1/sweeps: a grid declared as
// axis lists over shared base parameters, expanded server-side into the
// cross product workloads × scenarios × schemes × seeds × pressures ×
// distances (the row-major order cmd/experiments prints in). Empty
// seeds/pressures/distances axes contribute a single default element
// (seed 42 — the CLI default — pressure 0, dynamic distance).
type SweepRequest struct {
	Schemes   []string  `json:"schemes"`
	Workloads []string  `json:"workloads"`
	Scenarios []string  `json:"scenarios"`
	Seeds     []int64   `json:"seeds,omitempty"`
	Pressures []float64 `json:"pressures,omitempty"`
	Distances []uint64  `json:"distances,omitempty"`

	Accesses           uint64 `json:"accesses,omitempty"`
	FootprintPages     uint64 `json:"footprint_pages,omitempty"`
	CostModel          string `json:"cost_model,omitempty"`
	MultiRegionAnchors bool   `json:"multi_region_anchors,omitempty"`
	// Shards is deprecated and ignored, as on SimulateRequest.
	Shards int `json:"shards,omitempty"`

	// Priority picks the lane within the submitting tenant's fair-share
	// queue: "interactive" overtakes the tenant's own "batch" backlog
	// (never another tenant's share). Empty means batch.
	Priority string `json:"priority,omitempty"`
}

// expand validates the axes and returns the grid's cells in
// deterministic order, both as library configs (for the sweeper) and as
// the request echoes reported alongside each result.
func (req SweepRequest) expand(lim Limits) ([]hybridtlb.SimulationConfig, []SimulateRequest, *apiError) {
	for _, axis := range []struct {
		field  string
		values []string
	}{
		{"schemes", req.Schemes},
		{"workloads", req.Workloads},
		{"scenarios", req.Scenarios},
	} {
		if len(axis.values) == 0 {
			return nil, nil, invalidField(axis.field, "%s axis must name at least one value", axis.field)
		}
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []int64{42}
	}
	pressures := req.Pressures
	if len(pressures) == 0 {
		pressures = []float64{0}
	}
	distances := req.Distances
	if len(distances) == 0 {
		distances = []uint64{0}
	}

	// Multiply axis by axis and stop as soon as the grid passes the
	// limit: six long axes fit in a small body, but their product
	// overflows int. Without a cap, the limit is the largest int.
	limit := lim.MaxSweepJobs
	if limit <= 0 {
		limit = math.MaxInt
	}
	total := 1
	for _, n := range []int{len(req.Workloads), len(req.Scenarios), len(req.Schemes), len(seeds), len(pressures), len(distances)} {
		if total > limit/n {
			return nil, nil, &apiError{Status: http.StatusBadRequest, Code: codeInvalidRequest,
				Message: fmt.Sprintf("sweep expands to more than %d jobs, over the server limit", limit)}
		}
		total *= n
	}
	if req.Shards < 0 {
		return nil, nil, invalidField("shards", "shards %d is negative", req.Shards)
	}

	cfgs := make([]hybridtlb.SimulationConfig, 0, total)
	echoes := make([]SimulateRequest, 0, total)
	for _, wl := range req.Workloads {
		for _, sc := range req.Scenarios {
			for _, scheme := range req.Schemes {
				for _, seed := range seeds {
					for _, press := range pressures {
						for _, dist := range distances {
							cell := SimulateRequest{
								Scheme:              scheme,
								Workload:            wl,
								Scenario:            sc,
								Accesses:            req.Accesses,
								FootprintPages:      req.FootprintPages,
								Seed:                seed,
								Pressure:            press,
								FixedAnchorDistance: dist,
								CostModel:           req.CostModel,
								MultiRegionAnchors:  req.MultiRegionAnchors,
							}
							if err := cell.validate(lim); err != nil {
								return nil, nil, err
							}
							cfgs = append(cfgs, cell.toConfig())
							echoes = append(echoes, cell)
						}
					}
				}
			}
		}
	}
	return cfgs, echoes, nil
}

func knownName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// ResultJSON is the wire form of hybridtlb.SimulationResult.
type ResultJSON struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Scenario string `json:"scenario"`

	Accesses      uint64 `json:"accesses"`
	Instructions  uint64 `json:"instructions"`
	L1Hits        uint64 `json:"l1_hits"`
	L2RegularHits uint64 `json:"l2_regular_hits"`
	CoalescedHits uint64 `json:"coalesced_hits"`
	Misses        uint64 `json:"misses"`
	Cycles        uint64 `json:"cycles"`

	MissesPerMillionInstructions float64 `json:"misses_per_million_instructions"`
	TranslationCPI               float64 `json:"translation_cpi"`
	CPIRegularHit                float64 `json:"cpi_regular_hit"`
	CPICoalescedHit              float64 `json:"cpi_coalesced_hit"`
	CPIWalk                      float64 `json:"cpi_walk"`

	L2RegularHitFraction   float64 `json:"l2_regular_hit_fraction"`
	L2CoalescedHitFraction float64 `json:"l2_coalesced_hit_fraction"`
	L2MissFraction         float64 `json:"l2_miss_fraction"`

	AnchorDistance uint64 `json:"anchor_distance,omitempty"`
	Chunks         int    `json:"chunks"`
	HugePages      int    `json:"huge_pages"`
}

func toResultJSON(r hybridtlb.SimulationResult) *ResultJSON {
	return &ResultJSON{
		Scheme:        r.Scheme,
		Workload:      r.Workload,
		Scenario:      r.Scenario,
		Accesses:      r.Stats.Accesses,
		Instructions:  r.Instructions,
		L1Hits:        r.Stats.L1Hits,
		L2RegularHits: r.Stats.L2RegularHits,
		CoalescedHits: r.Stats.CoalescedHits,
		Misses:        r.Stats.Misses,
		Cycles:        r.Stats.Cycles,

		MissesPerMillionInstructions: r.MissesPerMillionInstructions(),
		TranslationCPI:               r.TranslationCPI,
		CPIRegularHit:                r.CPIRegularHit,
		CPICoalescedHit:              r.CPICoalescedHit,
		CPIWalk:                      r.CPIWalk,

		L2RegularHitFraction:   r.L2RegularHitFraction,
		L2CoalescedHitFraction: r.L2CoalescedHitFraction,
		L2MissFraction:         r.L2MissFraction,

		AnchorDistance: r.AnchorDistance,
		Chunks:         r.Chunks,
		HugePages:      r.HugePages,
	}
}

// SweepCellJSON is one cell of a finished sweep: the config echo and
// either its result or its per-job error.
type SweepCellJSON struct {
	Config SimulateRequest `json:"config"`
	Result *ResultJSON     `json:"result,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func retryAfterSeconds(d float64) string {
	secs := int(d + 0.999)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
