package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"hybridtlb"
	"hybridtlb/internal/core"
)

// FuzzDecodeRequests feeds arbitrary bodies through the request decoding
// and validation of both endpoints, at the default limits. It never
// simulates. Nothing may panic, every rejection is a 400, and whatever
// is accepted must meet every bound validate enforces.
func FuzzDecodeRequests(f *testing.F) {
	for _, body := range []string{
		`{"scheme":"anchor","workload":"gups","scenario":"demand"}`,
		`{"scheme":"anchor","workload":"gups","scenario":"medium","accesses":50000}`,
		`{"scheme":"anchor","workload":"gups","scenario":"demand","static_ideal":true,"pressure":0.5,"cost_model":"paper"}`,
		`{"schemes":["base","anchor"],"workloads":["gups"],"scenarios":["demand","medium"]}`,
		`{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"],"seeds":[1,2],"pressures":[0,0.5],"distances":[0,8],"priority":"interactive"}`,
		`{"scheme":"anchor","workload":"gups","scenario":"demand","footprint_pages":16777217}`,
		`{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"],"footprint_pages":1073741824}`,
		`{"scheme":"anchor","workload":"gups","scenario":"demand","fixed_anchor_distance":3}`,
		`{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"],"distances":[3]}`,
		`{"scheme":"anchor","workload":"gups","scenario":"demand","warp":9}`,
		`{"scheme":"anchor","workload":"gups","scenario":"demand"} {}`,
		`{"scheme":"anchor","workload":"gups","scenario":"demand","shards":-1}`,
		`{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"],"shards":-1}`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	for _, n := range overflowAxes {
		f.Add(gridBody(f, n))
	}

	lim := Config{}.withDefaults().limits()
	f.Fuzz(func(t *testing.T, body []byte) {
		var sim SimulateRequest
		apiErr := decode(body, &sim)
		if apiErr == nil {
			apiErr = sim.validate(lim)
		}
		if apiErr == nil {
			checkBounds(t, sim, lim)
		} else {
			checkRejection(t, apiErr)
		}

		var sweep SweepRequest
		if apiErr := decode(body, &sweep); apiErr != nil {
			checkRejection(t, apiErr)
			return
		}
		cfgs, echoes, apiErr := sweep.expand(lim)
		if apiErr != nil {
			checkRejection(t, apiErr)
			return
		}
		if len(cfgs) > lim.MaxSweepJobs || len(echoes) != len(cfgs) {
			t.Fatalf("accepted sweep has %d configs and %d echoes, limit %d", len(cfgs), len(echoes), lim.MaxSweepJobs)
		}
		for _, cell := range echoes {
			if apiErr := cell.validate(lim); apiErr != nil {
				t.Fatalf("accepted sweep cell %+v fails validate: %v", cell, apiErr)
			}
			checkBounds(t, cell, lim)
		}
	})
}

// decode runs body through the server's strict JSON decoding.
func decode(body []byte, v any) *apiError {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	return decodeJSON(httptest.NewRecorder(), r, v)
}

// checkBounds restates, independently of validate, every bound an
// accepted request must meet.
func checkBounds(t *testing.T, req SimulateRequest, lim Limits) {
	t.Helper()
	switch {
	case !knownName(hybridtlb.Schemes(), req.Scheme),
		!knownName(hybridtlb.Workloads(), req.Workload),
		!knownName(hybridtlb.Scenarios(), req.Scenario):
		t.Fatalf("accepted unknown name in %+v", req)
	case req.Pressure < 0 || req.Pressure > 1:
		t.Fatalf("accepted pressure %g", req.Pressure)
	case req.Accesses > lim.MaxAccesses:
		t.Fatalf("accepted %d accesses over the limit %d", req.Accesses, lim.MaxAccesses)
	case req.FootprintPages > maxFootprintPages:
		t.Fatalf("accepted footprint %d pages", req.FootprintPages)
	case req.FixedAnchorDistance != 0 && !core.ValidDistance(req.FixedAnchorDistance):
		t.Fatalf("accepted fixed anchor distance %d", req.FixedAnchorDistance)
	case req.Shards < 0:
		t.Fatalf("accepted shards %d", req.Shards)
	}
	if _, err := core.ParseCostModel(req.CostModel); err != nil {
		t.Fatalf("accepted cost model %q: %v", req.CostModel, err)
	}
}

// checkRejection requires a rejection to be a client error.
func checkRejection(t *testing.T, apiErr *apiError) {
	t.Helper()
	if apiErr.Status != http.StatusBadRequest || apiErr.Code != codeInvalidRequest {
		t.Fatalf("rejection = %d %q, want 400 %q", apiErr.Status, apiErr.Code, codeInvalidRequest)
	}
}
