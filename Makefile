# Developer entry points. `make check` is the pre-commit gate.

GO ?= go

.PHONY: check vet build test race load-smoke bench bench-json bench-baseline bench-pair experiments serve lint tools allocgate

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

# bench-json runs the translation hot-path benchmark (the batched
# drive loop, per scheme) and emits it as the BENCH_pipeline.json artifact:
# ns/access, allocs/access, and iteration counts. Override BENCHTIME
# (e.g. BENCHTIME=1000x) for a quick smoke run; 262144x is one full pass
# over the benchmark's 2^18-record buffer, each record translated once.
BENCHTIME ?= 1s
bench-json:
	$(GO) test -run xxx -bench BenchmarkTranslateHotPath -benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_pipeline.json

# bench-baseline reruns the hot-path benchmark and fails if any
# (scheme, variant) cell regressed more than 10% in ns/access against
# the BENCH_pipeline.json in the working tree. Writes nothing. CI runs
# it after bench-json has rewritten that file, so there it compares the
# code with itself and gates nothing (DESIGN.md §5f).
bench-baseline:
	$(GO) test -run xxx -bench BenchmarkTranslateHotPath -benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -out "" -baseline BENCH_pipeline.json

# bench-pair alternates end-to-end tlbbench runs of BASE (a commit,
# extracted with git archive into .bench_pair/) and of the working tree:
# PAIRS pairs of WORKLOAD at SEED, at most four per command, the side
# that runs first alternating from pair to pair. Every run is in the
# foreground under a five-minute timeout. Each run's result line is
# appended to .bench_pair/pairs.jsonl, and benchjson -pairs then
# summarizes everything the log holds: each side's median and quartiles
# per end-to-end metric and the working tree's wins. Remove the log to
# start a new comparison.
BASE ?= HEAD
WORKLOAD ?= remap-churn
SEED ?= 7
PAIRS ?= 4
bench-pair:
	@[ "$(PAIRS)" -ge 1 ] && [ "$(PAIRS)" -le 4 ] || { echo "bench-pair: PAIRS must be 1 to 4, got $(PAIRS)" >&2; exit 2; }
	@rev=$$(git rev-parse --verify "$(BASE)^{commit}") || exit 2; \
	dir=.bench_pair/$$rev; \
	if [ ! -d $$dir ]; then \
		rm -rf $$dir.tmp && mkdir -p $$dir.tmp && git archive $$rev | tar -x -C $$dir.tmp && mv $$dir.tmp $$dir || exit 2; \
	fi; \
	for i in $$(seq $(PAIRS)); do \
		order="base change"; [ $$((i % 2)) = 1 ] || order="change base"; \
		for side in $$order; do \
			d=.; [ $$side = change ] || d=$$dir; \
			(cd $$d && timeout 300 bash cmd/tlbbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 30 --trace 0) > .bench_pair/run.out \
				|| { echo "bench-pair: pair $$i, $$side side failed" >&2; exit 1; }; \
			line=$$(tail -n 1 .bench_pair/run.out); \
			echo "bench-pair: pair $$i $$side: $$line"; \
			printf '{"side":"%s","workload":"%s","seed":%s,"verdict":%s}\n' $$side "$(WORKLOAD)" "$(SEED)" "$$line" >> .bench_pair/pairs.jsonl; \
		done; \
	done
	$(GO) run ./cmd/benchjson -pairs .bench_pair/pairs.jsonl

# Full evaluation tables/figures (cmd/experiments at default scale).
experiments:
	$(GO) run ./cmd/experiments -exp all -progress

# Local simulation service on :8080 (see README for the API).
serve:
	$(GO) run ./cmd/tlbserver -addr :8080
