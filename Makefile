# Developer entry points. `make check` is the pre-commit gate.

GO ?= go

.PHONY: check vet build test race load-smoke bench bench-json bench-baseline experiments serve lint tools allocgate

check: vet build lint allocgate race load-smoke

vet:
	$(GO) vet ./...

# tools builds the project's dev tooling into bin/.
tools:
	@mkdir -p bin
	$(GO) build -o bin/tlbvet ./cmd/tlbvet

# lint runs tlbvet, the project's custom go/analysis passes
# (determinism, ctxflow, locksafe, closecheck, noprint, allocfree,
# lifecycle, metriclint — see DESIGN.md "Project invariants & static
# analysis").
lint: tools
	$(GO) vet -vettool=bin/tlbvet ./...

# allocgate proves every //tlbvet:hotpath region escape-free with the
# compiler's own analysis (`go build -gcflags=-m`), gated by the
# committed ALLOCGATE.allow (empty: no excused escapes).
allocgate:
	$(GO) run ./cmd/allocgate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# load-smoke runs the multi-tenant overload proof under -race: a short
# tlbload run (two tenants at 10:1 offered load) against an in-process
# server. The light tenant's p99 must stay bounded and error-free while
# the abusive tenant is shed with adaptive Retry-After hints. The run
# regenerates the committed BENCH_server.json and re-validates it.
load-smoke:
	TLBLOAD_OUT=$(CURDIR)/BENCH_server.json $(GO) test -race -run 'TestLoadSmoke|TestCommittedArtifactValid' -count=1 ./cmd/tlbload/

bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-json runs the translation hot-path benchmark (serial and
# batched per scheme) and emits it as the BENCH_pipeline.json artifact:
# ns/access, allocs/access, and iteration counts. Override BENCHTIME
# (e.g. BENCHTIME=1000x) for a quick smoke run; 262144x is one full pass
# over the benchmark's 2^18-record buffer, each record translated once.
BENCHTIME ?= 1s
bench-json:
	$(GO) test -run xxx -bench BenchmarkTranslateHotPath -benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_pipeline.json

# bench-baseline reruns the hot-path benchmark and fails if any
# (scheme, variant) cell regressed more than 10% in ns/access against
# the committed BENCH_pipeline.json. Writes nothing; CI's perf gate.
bench-baseline:
	$(GO) test -run xxx -bench BenchmarkTranslateHotPath -benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -out "" -baseline BENCH_pipeline.json

# Full evaluation tables/figures (cmd/experiments at default scale).
experiments:
	$(GO) run ./cmd/experiments -exp all -progress

# Local simulation service on :8080 (see README for the API).
serve:
	$(GO) run ./cmd/tlbserver -addr :8080
