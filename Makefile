# Development targets mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test lint perfbench perf-gate bench sweep-demo rare-demo clean

all: lint build test perfbench

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

# perfbench/ is its own module, outside ./...: vet and test it under
# run.sh's hermetic env.
perfbench:
	cd perfbench && GOTOOLCHAIN=local GOPROXY=off GOWORK=off $(GO) vet . && GOTOOLCHAIN=local GOPROXY=off GOWORK=off $(GO) test .

# One iteration of every benchmark: a smoke pass over the paper-figure
# reproduction harness and the campaign engine.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Same-machine A/B against a base revision (the CI perf job): perfbench
# base/head pairs on the merge base of BASE and HEAD, failing on a
# regression verdict. About 10 minutes: make perf-gate BASE=main
perf-gate:
	bash scripts/perf-gate.sh $(BASE)

# Run the checked-in demo campaign (params/sweep-demo.params).
sweep-demo:
	$(GO) run ./cmd/sweep

# Run the rare-event estimator demo campaign (params/rare-demo.params).
rare-demo:
	$(GO) run ./cmd/sweep -spec params/rare-demo.params

clean:
	$(GO) clean ./...
