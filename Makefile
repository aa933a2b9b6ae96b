GO ?= go

.PHONY: all ci vet lint mutate-check fma-check build test race bench bench-check fuzz-smoke figures figures-diff docs-check loc dead-check shard-check collector-check paper-check proxy-check load-check cluster-check clean

all: ci

## ci: everything the driver/CI gate runs, in order.
ci: vet lint build race bench-check

## vet: go vet, and no file gofmt would rewrite.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l cmd internal examples bench)"

## lint: the pinned third-party pass (staticcheck, govulncheck; skipped
## with a warning offline unless LINT_STRICT=1).
lint:
	bash scripts/lint-extra.sh

## mutate-check: the evidence behind every static contract — a table of
## seeded faults, each applied to a throw-away copy of the tree, each
## naming the tests that must fail it by name (see DESIGN.md
## "Machine-enforced invariants").
## ~5 min; `bash scripts/mutate-check.sh H9 S4` runs two rows.
mutate-check:
	bash scripts/mutate-check.sh

## fma-check: no floating-point multiply-add the compiler fuses for
## arm64, ppc64le, s390x or riscv64, in any package of the module: the
## Go spec lets x*y + z round once, so a fused build could print other
## table bytes for a seed; write float64(x*y) where a product is added
## (scripts/fma-check.sh).
fma-check:
	bash scripts/fma-check.sh

build:
	$(GO) build ./...

## test: the tier-1 gate (ROADMAP.md).
test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

## bench: the repository's benchmark — every workload of
## BENCHMARK.json end to end plus the traced per-layer passes (see
## bench/README.md; pass arguments through with `bash bench/run.sh ...`).
bench:
	bash bench/run.sh

## bench-check: the benchmark is a module of its own, so the root
## vet/test do not see it; an API change that breaks it fails here — it
## compiles against proxy.New/Config/Stats and the PrefixStore surface
## (NewPrefixStore, AppendAt, View(...).WriteTo, Len, Truncate).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## fuzz-smoke: a short fuzz of the trace parser, the row-log loader,
## the relay's model test (random publish/read/detach/cancel/evict
## scripts against an unbounded reference buffer), the wire loop's
## request-head parser (differential against net/http), Range
## parsing with ranged serving, the capacity pass against core.Cache
## on random tapes, and core.Cache against its map-based specification
## (random accesses and truncations under every policy).
fuzz-smoke:
	$(GO) test ./internal/trace/ -fuzz FuzzParseMalformed -fuzztime 10s
	$(GO) test ./internal/trace/ -fuzz FuzzReadAll -fuzztime 10s
	$(GO) test ./internal/rowlog/ -fuzz FuzzLogLoad -fuzztime 10s
	$(GO) test ./internal/proxy/ -run '^$$' -fuzz FuzzRelayModel -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/proxy/ -run '^$$' -fuzz FuzzParseRangeStart -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/httpd/ -run '^$$' -fuzz FuzzRequestHead -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzCapacityPass -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzCacheModel -fuzztime 10s -fuzzminimizetime 1s

## figures: regenerate every table/figure CSV at small scale.
figures:
	$(GO) run ./cmd/figures -out results

## figures-diff: build cmd/figures from REF and from the work tree, run
## both with the same KEYS (default: all) and SCALE (default: small),
## and diff every CSV — the cross-commit byte-identity check
## (TestGoldenTables is its small-scale, every-`go test` form).
REF ?= HEAD~1
figures-diff:
	bash scripts/figures-diff.sh '$(REF)' '$(KEYS)' '$(SCALE)'

## paper-check: every table's CSV digest and every answer at
## PaperScale, the scale the reported tables are run at, against
## internal/experiments/testdata/golden_paper.sha256 (TestPaperScale,
## which tier-1's `go test ./...` skips; ~10 s on 2 vCPUs).
paper-check:
	PAPER=1 $(GO) test ./internal/experiments -run '^TestPaperScale$$' -count=1 -v

## docs-check: every relative Markdown link in the docs set resolves,
## and EXPERIMENTS.md's summary table lists exactly the registry's keys.
docs-check:
	bash scripts/check-md-links.sh
	$(GO) test ./internal/experiments -run TestExperimentsDocListsEveryKey -count=1

## loc: non-test Go lines outside bench/, for the repo and per package
## directory — the number ROADMAP.md's fold-and-delete target tracks.
loc:
	@bash scripts/loc.sh

## dead-check: no func under cmd/, internal/ or examples/ is named only
## by its own tests — the rule PR 18's reachability pass applied by
## hand — and no exported field of a …Config or …Options struct is set
## only by tests; scripts/dead-allow.txt lists the test hooks kept on
## purpose.
dead-check:
	@bash scripts/dead-check.sh

## shard-check: end-to-end sharded sweep — run 2 and then 5 shards with
## journals, a shard's only output (OPERATIONS.md §7). First drop one
## cell from one row of a 2-shard journal and require the merge to refuse
## it naming table and index, then restore it; cut the other journal at
## the line boundary before its last row and require the merge to refuse
## the short table naming it and both row counts, then restore it;
## require the merge to refuse one of two journals and a 2-shard journal
## beside a 5-shard one, each naming what is wrong; then merge each
## split's journals and diff them against the single-process output. Each shard prints its
## share of the set-wide deal first (units and weight, of the set's).
## Shards own families dealt over the whole figure set: refined-e's and
## refined-esigma's coarse rows go with figure9's family and
## hierarchy's 1x1 rows with figure5's, so their rows are not dealt out
## round robin; ablation-eviction and hierarchy are keyed eviction and
## hierarchy rows, and ablation-estimators, scenarios and
## ext-active-probing cover every estimator (EWMA, Underestimate,
## ActiveProbe); figure6 and figure9 are the tables whose tapes and
## columns the arena releases mid-call.
SHARD_KEYS ?= figure5,figure6,figure9,refined-e,refined-esigma,ablation-eviction,ablation-estimators,scenarios,ext-active-probing,hierarchy
shard-check:
	rm -rf shard-check
	$(GO) build -o shard-check/figures ./cmd/figures
	@for n in 2 5; do \
		for i in $$(seq 0 $$((n - 1))); do \
			shard-check/figures -out shard-check/sharded$$n -only '$(SHARD_KEYS)' -shard $$i/$$n -journal shard-check/sharded$$n/j$$i.jsonl || exit 1; \
		done; \
	done
	@test -z "$$(ls shard-check/sharded2 | grep -v '^j[0-9]*\.jsonl$$')" || \
		{ echo "shard-check: FAIL: a shard wrote files besides its journal:"; ls shard-check/sharded2; exit 1; }
	@refuse() { \
		if out=$$(shard-check/figures -out shard-check/refused -merge -jsonl "$$@" 2>&1); then \
			echo "shard-check: FAIL: the merge accepted $$what"; exit 1; \
		fi; \
		echo "$$out" | grep -q "$$want" || { echo "shard-check: FAIL: the merge refused $$what without naming it:"; echo "$$out"; exit 1; }; \
		echo "shard-check: refused $$what: $$out"; \
	}; \
	j=shard-check/sharded2/j0.jsonl; cp $$j shard-check/intact.jsonl; \
	sed -i '0,/"type":"row"/s/"row":\["[^"]*",/"row":[/' $$j; \
	what='a row one cell short of its header' want='row [0-9]* of table ".*" has [0-9]* cells, its header declares [0-9]*' \
		refuse shard-check/sharded2/j*.jsonl || exit 1; \
	mv shard-check/intact.jsonl $$j; \
	j1=shard-check/sharded2/j1.jsonl; cp $$j1 shard-check/intact.jsonl; \
	last=$$(grep -n '"type":"row"' $$j1 | tail -n 1 | cut -d: -f1); \
	head -n $$((last - 1)) shard-check/intact.jsonl >$$j1; \
	what='a journal cut before its last row' want='table ".*" holds [0-9]* of its [0-9]* rows' \
		refuse shard-check/sharded2/j*.jsonl || exit 1; \
	mv shard-check/intact.jsonl $$j1; \
	what='one journal of two' want='shard 1/2 missing' refuse $$j || exit 1; \
	what='a 2-shard journal beside a 5-shard one' want='shards of two counts' \
		refuse $$j shard-check/sharded5/j1.jsonl || exit 1
	shard-check/figures -out shard-check/single -only '$(SHARD_KEYS)' -jsonl
	@for n in 2 5; do \
		shard-check/figures -out shard-check/merged$$n -merge -jsonl shard-check/sharded$$n/j*.jsonl || exit 1; \
		for f in shard-check/single/*.csv shard-check/single/*.jsonl; do \
			diff "$$f" "shard-check/merged$$n/$$(basename $$f)" || exit 1; \
		done; \
		echo "shard-check: merged $$n-shard output is byte-identical to the single-process run"; \
	done
	rm -rf shard-check

## collector-check: streaming-collector smoke — boot collectd, run the
## sweep as 2 concurrent shards pushing rows and metrics at it, and
## diff the collected CSVs against the single-process run
## byte-for-byte (OPERATIONS.md §12).
collector-check:
	bash scripts/collector-check.sh

## proxy-check: live-tier smoke — start a sharded proxyd, run loadgen
## against it, assert a nonzero prefix-hit ratio, the pinned
## loadgen-live header, no demoted sole reader and a clean SIGTERM
## drain (OPERATIONS.md §8).
proxy-check:
	bash scripts/proxy-check.sh

## load-check: open-loop smoke — schedule determinism across two dry
## runs, a short ramp sweep against proxyd with nonzero goodput and a
## stable live-capacity row schema, then a clean SIGTERM drain
## (OPERATIONS.md §9).
load-check:
	bash scripts/load-check.sh

## cluster-check: multi-node smoke — the deterministic in-process
## 3-edge + parent cluster test, then a live 3-proxyd ring driven
## round-robin by loadgen with verified digests, a nonzero peer byte
## fraction, and clean SIGTERM drains on every node (OPERATIONS.md §10).
cluster-check:
	bash scripts/cluster-check.sh

clean:
	rm -rf results shard-check
