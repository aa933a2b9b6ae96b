#!/usr/bin/env bash
# Every guard of the repo's three static contracts — zero allocations on
# the hit paths, byte-identical output for a seed, the lock discipline
# of the proxy — is shown to fail a seeded fault by name (DESIGN.md §9,
# OPERATIONS.md §11). One row of the table below is one fault:
#
#   row ID FILE FAILS GUARD WHY ANCHOR REPLACEMENT [ANCHOR REPLACEMENT]...
#
#   FILE     the one file the fault edits; each ANCHOR (literal text, its
#            first occurrence) becomes its REPLACEMENT
#   FAILS    the tests that must fail by name, or `-`
#   GUARD    arguments of the `go test -count=1` that runs them, led
#            by any VAR=value settings of its environment; with FAILS
#            `-` the whole of it must pass
#   WHY      what the fault is; a row that nothing catches must start it
#            with `BENIGN:` (not a fault: the row pins that every guard
#            stays green) or `KNOWN-GAP:` (a fault no guard sees yet)
#
# Each row is applied to a throw-away copy of the tree (the checkout is
# never touched), must build and must pass `go vet` on the edited
# package — vet sees none of these faults, which is why the other
# guards exist. `scripts/mutate-check.sh H9 S4` runs only those rows.
# `make mutate-check` and CI's lint job run them all (~5 min).
set -euo pipefail
shopt -u patsub_replacement 2>/dev/null || true # a `&` in a replacement is a `&`
cd "$(dirname "$0")/.."

# The body is one function, called on the last line: bash reads a
# function whole before it runs it, so editing this file while it runs
# cannot change the rows a run applies.
main() {
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
only=" $* "

mkdir "$tmp/pristine"
git ls-files --cached --others --exclude-standard -z |
    while IFS= read -r -d '' f; do [[ -f $f ]] && printf '%s\0' "$f"; done |
    tar --null -T - -cf - | tar -C "$tmp/pristine" -xf -

rows=0
bad=0
fail() {
    echo "mutate-check: FAIL: row $1: $2" >&2
    bad=$((bad + 1))
}

row() {
    local id=$1 file=$2 fails=$3 guard=$4 why=$5
    shift 5
    [[ $only == "  " || $only == *" $id "* ]] || return 0
    rows=$((rows + 1))
    if [[ $fails == - && $why != BENIGN:* && $why != KNOWN-GAP:* ]]; then
        fail "$id" "names no catcher and gives no BENIGN: or KNOWN-GAP: reason"
        return 0
    fi
    # One path for every row, so the build cache serves what a row left alone.
    local copy=$tmp/tree src out t
    rm -rf "$copy"
    cp -a "$tmp/pristine" "$copy"
    src=$'\n'$(<"$copy/$file") # so that an anchor starting with \n matches at line 1 too
    while (($#)); do
        if [[ $src != *"$1"* ]]; then
            fail "$id" "stale row: $file no longer holds the anchor: $1"
            return 0
        fi
        src=${src/"$1"/"$2"}
        shift 2
    done
    printf '%s\n' "${src#$'\n'}" >"$copy/$file"
    if ! out=$(cd "$copy" && go build ./... 2>&1 && go vet "./$(dirname "$file")" 2>&1); then
        fail "$id" "the edited tree must build and pass go vet:"$'\n'"$out"
        return 0
    fi

    local -a args=(-count=1) env=() words
    [[ $fails == - ]] || args+=(-run "^(${fails// /|})\$")
    # shellcheck disable=SC2206 # the guard is a list of go test arguments
    words=($guard)
    while ((${#words[@]})) && [[ ${words[0]} =~ ^[A-Z_]+= ]]; do
        env+=("${words[0]}")
        words=("${words[@]:1}")
    done
    args+=("${words[@]}")
    if out=$(cd "$copy" && env "${env[@]}" go test "${args[@]}" 2>&1); then
        [[ $fails == - ]] || fail "$id" "go test ${args[*]} passed; $fails must fail"
    elif [[ $fails == - ]]; then
        fail "$id" "go test ${args[*]} must pass:"$'\n'"$(grep -v '^ok ' <<<"$out" | head -40)"
    else
        for t in $fails; do
            grep -q "^--- FAIL: $t " <<<"$out" ||
                fail "$id" "go test ${args[*]} failed, but not $t:"$'\n'"$(grep -v '^ok ' <<<"$out" | head -40)"
        done
    fi
    printf 'mutate-check: %-4s fails=%s\n              %s\n' "$id" "${fails// /,}" "$why"
}

# --- allocation: the AllocsPerRun pins own the budget -----------------------

# What a fault stores into, declared in front of the function it edits.
sink=$'var (\n\tmutSink any\n\tmutStr  string\n\tmutFn   func()\n\tmutErr  error\n)\n\n'
core_sim_proxy='./internal/core ./internal/sim ./internal/proxy'
access='func (c *Cache) AccessWithTarget(obj Object, target int64, bw float64, now float64) (hit, after, clamped, evicted int64, victims []Victim) {'
row H1 internal/core/cache.go \
    'TestAccessHitPathAllocFree TestResetReuseAllocFree TestRunOnceSteadyStateAllocs TestServePrefixHitAllocFree' "$core_sim_proxy" \
    'fmt.Sprintf per core.(*Cache).AccessWithTarget, the body of Access' \
    "$access" "$sink$access"$'\n\tmutSink = fmt.Sprintf("%d@%g", obj.ID, now)'
row H2 internal/core/cache.go \
    'TestAccessHitPathAllocFree TestResetReuseAllocFree TestRunOnceSteadyStateAllocs TestServePrefixHitAllocFree' "$core_sim_proxy" \
    'float64 boxed into an interface per AccessWithTarget' \
    "$access" "$sink$access"$'\n\tmutSink = bw + 0.5'
row H13 internal/core/heap.go 'TestResetReuseAllocFree TestRunOnceSteadyStateAllocs' "$core_sim_proxy" \
    'struct boxed into an interface per core.heapUp' \
    $'func (c *Cache) heapUp(i int32) {\n' "$sink"$'func (c *Cache) heapUp(i int32) {\n\tmutSink = c.ents[c.heap[i]]\n'

serve_object='func (p *Proxy) serveObject(w http.ResponseWriter, req *http.Request, meta Meta) {'
shard_for=$'\tsh := p.shardFor(meta.ID)\n\n\theadOnly'
row H3 internal/proxy/proxy.go TestServePrefixHitAllocFree ./internal/proxy \
    'escaping closure per proxy.serveObject' \
    "$serve_object" "$sink$serve_object" \
    "$shard_for" $'\tsh := p.shardFor(meta.ID)\n\tmutFn = func() { _ = meta.ID }\n\n\theadOnly'
row H5 internal/proxy/proxy.go TestServePrefixHitAllocFree ./internal/proxy \
    'string concatenation for a header per serveObject' \
    "$serve_object" "$sink$serve_object" \
    "$shard_for" $'\tsh := p.shardFor(meta.ID)\n\tmutStr = "object " + req.URL.Path\n\n\theadOnly'
row H12 internal/proxy/proxy.go TestServePrefixHitAllocFree ./internal/proxy \
    'method value bound per serveObject' \
    "$serve_object" "$sink$serve_object" \
    "$shard_for" $'\tsh := p.shardFor(meta.ID)\n\tmutFn = p.Quiesce\n\n\theadOnly'
row H4 internal/proxy/store.go TestServePrefixHitAllocFree ./internal/proxy \
    'growing local append per PrefixStore.View' \
    $'\t\tv = prefixView{segs: e.segs, n: e.length, hdr: e.hdr}' \
    $'\t\tvar segs []*segment\n\t\tfor _, sg := range e.segs {\n\t\t\tsegs = append(segs, sg)\n\t\t}\n\t\tv = prefixView{segs: segs, n: e.length, hdr: e.hdr}'
row H14 internal/proxy/store.go - './internal/proxy ./internal/httpd' \
    'BENIGN: a deferred literal that does not escape, in PrefixStore.Len (the deleted hotpath analyzer flagged it; it allocates nothing)' \
    $'func (s *PrefixStore) Len(id int) (n int64) {\n' $'func (s *PrefixStore) Len(id int) (n int64) {\n\tdefer func() { n += 0 }()\n'

render_head=$'func (c *conn) renderHead() {\n'
row H6 internal/httpd/response.go TestKeepAliveRequestAllocs ./internal/httpd \
    'allocating helper called from httpd.renderHead' \
    "$render_head" "$sink"$'func mutLabel(status int) string { return "status " + strconv.Itoa(status) }\n\n'"$render_head"$'\tmutStr = mutLabel(c.status)\n'
row H6b internal/httpd/response.go - './internal/httpd ./internal/proxy' \
    'BENIGN: helper that allocates nothing, called from renderHead (the deleted hotpath analyzer flagged the unannotated call)' \
    "$render_head" $'func mutOK(status int) bool { return status == http.StatusOK }\n\n'"$render_head"$'\tif mutOK(c.status) {\n\t\tc.headSent = true\n\t}\n'
row H7 internal/httpd/request.go TestKeepAliveRequestAllocs ./internal/httpd \
    'strings.ToLower on every header name in httpd.parseHead (the deleted hotpath analyzer passed it)' \
    'k = textproto.CanonicalMIMEHeaderKey(k)' 'k = textproto.CanonicalMIMEHeaderKey(strings.ToLower(k))'
row H11 internal/httpd/response.go 'TestKeepAliveRequestAllocs TestWireHitAllocs' './internal/httpd ./internal/proxy' \
    'fresh [][]byte per httpd.WriteBuffers (the deleted hotpath analyzer passed it)' \
    $'\tc.vec = c.vec[:0]\n\tvar headLen int64' $'\tc.vec = nil\n\tvar headLen int64'

# relay.go does not import fmt: the fault brings it under a name of its
# own, which cannot collide with whatever the file imports later.
row H8 internal/proxy/relay.go TestRelayReaderLoopAllocFree ./internal/proxy \
    'fmt.Errorf on the steady path of relay.next, in the relayState.pin it calls' \
    $'\npackage proxy\n' $'\npackage proxy\n\nimport mutfmt "fmt"\n' \
    'func (s *relayState) pin(' "$sink"'func (s *relayState) pin(' \
    $'\ti := 0\n\tfor s.ring[i].end() <= off {' $'\tmutErr = mutfmt.Errorf("proxy: relay at %d", off)\n\ti := 0\n\tfor s.ring[i].end() <= off {'
row H9 internal/proxy/proxy.go 'TestPumpSteadyStateAllocFree TestServeMissAllocs' ./internal/proxy \
    'make([]byte, 4096) per upstream read in proxy.pump' \
    $'\t\tn, err = body.Read(seg.buf[offset-seg.off:])' \
    $'\t\tdst := seg.buf[offset-seg.off:]\n\t\tbuf := make([]byte, 4096)\n\t\tn, err = body.Read(buf[:min(len(buf), len(dst))])\n\t\tcopy(dst, buf[:n])'
row H10 internal/sim/sim.go TestRunOnceSteadyStateAllocs ./internal/sim \
    'fmt.Sprint per request in sim.replayColumns, the request loop of Run' \
    'func replayColumns(' "$sink"'func replayColumns(' \
    $'\t\tvar hit, evicted int64\n' $'\t\tmutStr = fmt.Sprint(i, o)\n\t\tvar hit, evicted int64\n'
row H15 internal/sim/hierarchy.go TestRunOnceSteadyStateAllocs ./internal/sim \
    'fmt.Sprint per request in sim.hierarchyRunOnce, the request loop of RunHierarchy' \
    'func hierarchyRunOnce(' "$sink"'func hierarchyRunOnce(' \
    $'\t\tvar reqEdge, reqPeer, reqParent, off int64\n' $'\t\tmutStr = fmt.Sprint(i, o)\n\t\tvar reqEdge, reqPeer, reqParent, off int64\n'

# --- segment references: poison-on-recycle, the refill count, the bound -------
#
# A segment goes back to segPool when its last reference does (DESIGN.md
# §8a); internal/proxy's TestMain poisons what is recycled, so a
# reference missing or dropped early is wrong bytes in a named test, and
# one kept too long is a segment the pool never sees again.

row R1 internal/proxy/store.go TestRecycledSegmentNeverAliased ./internal/proxy \
    'PrefixStore.View takes no references: the eviction recycles what the view still reads' \
    $'\t\tfor _, seg := range v.segs {\n\t\t\tseg.ref()\n\t\t}\n\t})' $'\t})'
row R2 internal/proxy/store.go TestRecycledSegmentNeverAliased ./internal/proxy \
    'prefixEntry.dropFrom releases the chain reference twice: the second one is a view or a reader losing its own' \
    $'\t\tk--\n\t\te.segs[k].unref()' $'\t\tk--\n\t\te.segs[k].unref()\n\t\te.segs[k].unref()'
row R3 internal/proxy/relay.go 'TestServeMissAllocs TestRelayRingBoundsMemory' ./internal/proxy \
    'relay.next forgets to unpin the batch the reader hands back: its segments never return to the pool' \
    $') (err error) {\n\tb.unpin()\n' $') (err error) {\n\tb.n = 0\n'
row R4 internal/proxy/relay.go TestRelayRingBoundsMemory ./internal/proxy \
    'batch cap lifted from half a ring to a whole one: a stalled reader keeps twice the bound out of the pool' \
    $'\tsegs   [relayRingSegments / 2]*segment\n\tchunks [relayRingSegments / 2][]byte' $'\tsegs   [relayRingSegments]*segment\n\tchunks [relayRingSegments][]byte'

# --- determinism: the digests and the cross-parallelism tests ---------------
#
# No analyzer: every fault here is failed by a test by name.

row D1 internal/sim/capacity.go 'TestGoldenTables TestMetricsIdenticalAcrossParallelism' './internal/experiments ./internal/sim' \
    'wall clock mixed into the run seed of sim.RunGroup (and so of Run)' \
    $'\npackage sim\n' $'\npackage sim\n\nimport muttime "time"\n' \
    $'func(seed int64) ([]Metrics, error) {\n' $'func(seed int64) ([]Metrics, error) {\n\t\tseed ^= muttime.Now().UnixNano()\n'
row D2 internal/workload/workload.go 'TestGoldenTables TestMetricsIdenticalAcrossParallelism' './internal/experiments ./internal/sim' \
    'process-global rand.Float64 in workload.NewGenerator'"'"'s catalog (what Generate and every sim tape draw)' \
    'durSeconds := durations.Sample(rng) * 60' 'durSeconds := durations.Sample(rng) * 60 * (1 + rand.Float64()/100)'
row W1 internal/sim/tape.go 'TestTapeReplayBitIdentical TestGoldenTables' './internal/sim ./internal/experiments' \
    'tape.watchedAt ignores a present watched column: every session of a partial-viewing tape watches to the end' \
    $'\tif t.watched == nil {\n\t\treturn size\n\t}\n\treturn t.watched[i]' $'\treturn size'
row W2 internal/workload/workload.go 'TestGoldenTables TestTapeReplayBitIdentical' './internal/experiments ./internal/sim' \
    'Generator.Next draws a partial view'"'"'s fraction after the arrival time instead of before: only tapes with partial viewers change' \
    $'\tfrac := 1.0\n\tif g.Config.PartialViewProb' $'\tnow := g.proc.Next(g.rng)\n\tfrac := 1.0\n\tif g.Config.PartialViewProb' \
    'Time:     g.proc.Next(g.rng),' 'Time:     now,'
row D4 internal/sim/sim.go 'TestMetricsIdenticalAcrossParallelism TestArenaMetricsBitIdentical' ./internal/sim \
    'ad-hoc goroutines (unless Parallelism is 1) summing the runs of sim.averageRuns in completion order, even runs made to finish first (half of the 24 orders of these four runs leave every sum bit as it was: left to the scheduler, the tests see this fault only now and then)' \
    $'\tpar.For(cfg.Parallelism, cfg.Runs, func(r int) {\n\t\tresults[r], errs[r] = once(SplitSeed(cfg.Seed, int64(r)))\n\t})\n\tvar agg M\n' \
    $'\t_ = par.For\n\tvar agg M\n\tvar mu sync.Mutex\n\tvar wg sync.WaitGroup\n\tfor r := range results {\n\t\twg.Add(1)\n\t\trun := func() {\n\t\t\tdefer wg.Done()\n\t\t\tm, err := once(SplitSeed(cfg.Seed, int64(r)))\n\t\t\tmu.Lock()\n\t\t\tdefer mu.Unlock()\n\t\t\tresults[r], errs[r] = m, err\n\t\t\tadd(&agg, m)\n\t\t}\n\t\tif cfg.Parallelism == 1 {\n\t\t\trun()\n\t\t} else {\n\t\t\tgo func() {\n\t\t\t\ttime.Sleep(time.Duration(r/2+cfg.Runs*(r%2)) * 20 * time.Millisecond)\n\t\t\t\trun()\n\t\t\t}()\n\t\t}\n\t}\n\twg.Wait()\n' \
    $'\t\tadd(&agg, m)\n\t}\n\tover(&agg, cfg.Runs)' $'\t\t_ = m\n\t}\n\tover(&agg, cfg.Runs)'
row D6 internal/trace/trace.go TestSampleToMeanRatiosServerOrder ./internal/trace \
    'trace.SampleToMeanRatios emits servers in map order (the printed precision hides the drift from the digests)' \
    $'\tsort.Strings(servers)\n' $'\t_ = sort.Strings\n'
row D5 internal/load/engine.go TestScheduleByteIdenticalAcrossRuns ./internal/load \
    'time.Now in load.syntheticItems (the deleted BuildSchedule call-graph arm flagged it)' \
    $'\t\t\tTime:       t,' $'\t\t\tTime:       t + float64(time.Now().Nanosecond())*1e-12,'
row D7 internal/load/arrival.go 'TestProcessesDeterministicPerSeed TestScheduleByteIdenticalAcrossRuns' ./internal/load \
    'process-global rand.Float64 in load.OnOff.Times (the deleted call-graph arm never reached it)' \
    'on := rng.Float64() < pOn' 'on := rand.Float64() < pOn'
row D8 internal/load/arrival.go 'TestProcessesDeterministicPerSeed TestScheduleByteIdenticalAcrossRuns' ./internal/load \
    'wall-clock nudge in load.OnOff.Times (the deleted call-graph arm never reached it)' \
    $'\npackage load\n' $'\npackage load\n\nimport muttime "time"\n' \
    't += rng.ExpFloat64() / o.PeakHz' 't += rng.ExpFloat64()/o.PeakHz + float64(muttime.Now().Nanosecond()%7)*1e-9'
row D9 internal/sim/sim.go TestAnswerLedger ./internal/experiments \
    'a flat run'"'"'s traffic reduction is 1 - (watched - cached)/watched, not cached/watched: off by an ulp in some answers, which no CSV digit shows (TestGoldenTables passes it)' \
    'm.TrafficReductionRatio = t.cached / watched' 'm.TrafficReductionRatio = 1 - (watched-t.cached)/watched'

row D10 internal/experiments/engine.go TestPaperScale 'PAPER=1 ./internal/experiments' \
    'a refinement round places the fifth refined point of every adaptive table a tenth closer to the axis origin than its refiner picked' \
    $'\t\t\tif pts[i], err = p.at(coords); err != nil {' $'\t\t\tif next+i == len(p.coarse)+4 {\n\t\t\t\tcoords = append([]float64{coords[0] * 0.9}, coords[1:]...)\n\t\t\t}\n\t\t\tif pts[i], err = p.at(coords); err != nil {'
row D10b internal/experiments/engine.go - '-run ^(TestGoldenTables|TestAnswerLedger)$ ./internal/experiments' \
    'KNOWN-GAP: row D10'"'"'s fifth refined point at small scale, whose refinement budget is 4: only TestPaperScale (make paper-check) sees it' \
    $'\t\t\tif pts[i], err = p.at(coords); err != nil {' $'\t\t\tif next+i == len(p.coarse)+4 {\n\t\t\t\tcoords = append([]float64{coords[0] * 0.9}, coords[1:]...)\n\t\t\t}\n\t\t\tif pts[i], err = p.at(coords); err != nil {'

# --- open-loop flags: a NaN fails every range check ---------------------------
#
# A range check written x <= 0 lets NaN through; loadgen's checks are
# written !(x > 0), run before -dry-run returns, and a real run shares them.

row N1 internal/load/engine.go TestOpenFlagsRefused ./cmd/loadgen \
    'Options.Normalize lets a NaN TimeScale through: loadgen -time-scale NaN passes -dry-run, and a real run divides every arrival time by NaN' \
    'if !(o.TimeScale > 0) || math.IsInf(o.TimeScale, 1) {' 'if o.TimeScale <= 0 || math.IsInf(o.TimeScale, 1) {'

# --- capacity pass: exact or refused -----------------------------------------
#
# sim.RunGroup scores a cache-size axis in one tape pass only where the
# greedy fill is core.Cache's state (DESIGN.md §5a); each fault makes it
# score something it must refuse, or score it wrong.

row K1 internal/sim/capacity.go TestCapacityPassMatchesRunOnce ./internal/sim \
    'the tie check is gone: two objects sharing a utility are ranked by request index, which core.Cache does not do' \
    'if kept >= 0 && o != kept {' 'if kept >= 0 && o != kept && t < 0 {'
row K2 internal/sim/capacity.go 'FuzzCapacityPass TestGoldenTables' './internal/sim ./internal/experiments' \
    'the suffix sum over ranks above the key counts ranks >= it: the object competes with its own target' \
    'above = live - tree.sum(prev)' 'above = live - tree.sum(prev-1)'
row K3 internal/sim/capacity.go FuzzCapacityPass ./internal/sim \
    'EvictedBytes is never derived from the fills (no table column reports it: only the model test sees it)' \
    'a.evicted += min(cb, before) - min(cb, live) + held - hit' '_ = min(cb, before) - min(cb, live) + held - hit'
row K4 internal/sim/capacity.go 'FuzzCapacityPass TestCapacityPassMatchesRunOnce TestGroupMatchesRun TestGoldenTables' './internal/sim ./internal/experiments' \
    'selection ignores the Estimator across capacities: an EWMA or underestimating cache-size group is scored with the oracle means' \
    'return c.Estimator == nil && !core.Ages(c.Policy)' 'return !core.Ages(c.Policy)'
row K6 internal/sim/capacity.go TestCapacityPassMatchesRunOnce ./internal/sim \
    'selection ignores aging: a GreedyDual cache-size group is scored by the greedy fill of utilities without L' \
    'c.Estimator == nil && !core.Ages(c.Policy) && ' 'c.Estimator == nil && '
row K8 internal/sim/share.go TestScorePendingFamilies ./internal/sim \
    'the family key drops Seed: a group of other run seeds joins the family and is scored over the first group'"'"'s tapes' \
    'key.Policy = core.Ranker(key.Policy)' 'key.Policy, key.Seed = core.Ranker(key.Policy), 0'
row K9 internal/core/gds.go 'TestRankerRanksAlike TestScorePendingFamilies TestGroupCounts' './internal/core ./internal/sim ./internal/experiments' \
    'core.Ranker keeps a hybrid'"'"'s e: PB, IB and every hybrid rank the tape again (no answer moves; the ranks= pins see it)' \
    $'\tcase hybridPolicy:\n\t\treturn hybridPolicy{}' $'\tcase hybridPolicy:\n\t\treturn p'
row K10 internal/sim/capacity.go 'TestCapacityPassMatchesRunOnce TestGroupCounts' './internal/sim ./internal/experiments' \
    'the tie check ignores the target filter: a tie between an object the policy caches and one it does not refuses the pass' \
    'if o := int(rp.obj[i]); s.target[o] > 0 {' 'if o := int(rp.obj[i]); true {'
row K11 internal/sim/capacity.go TestGroupCounts ./internal/experiments \
    'a ranking outlives its run seed: every later seed of the process reads the last ranking built (the pass'"'"'s tie and bad checks refuse the stale ranking and the seeds replay, so no answer moves and TestAnswerLedger passes it: the passes= pins see it)' \
    'func scoreSeed(' $'var mutRanking ranking\n\nfunc scoreSeed(' \
    $'\tvar r ranking\n' $'\tr := mutRanking\n\tranked = len(r.slot) == len(rp.obj)\n' \
    $'\t\t\t\tr, ranked = s.rank(cfg.Policy, rp), true\n' $'\t\t\t\tr, ranked = s.rank(cfg.Policy, rp), true\n\t\t\t\tmutRanking = r\n'
row K12 internal/sim/capacity.go TestCapacityPassRefusesFallingUtility ./internal/sim \
    'the ranking drops the fall mark: a utility below its object'"'"'s previous one is ranked as if the cache had moved the object down' \
    'if !(u > 0 && u <= math.MaxFloat64) || u < s.prev[o] {' 'if !(u > 0 && u <= math.MaxFloat64) {'
row K13 internal/sim/capacity.go 'TestCapacityPassMatchesRunOnce TestAnswerLedger' './internal/sim ./internal/experiments' \
    'the pass skips the build'"'"'s propagation: each held target sits at its own node, and every sum over the warm-up'"'"'s keys misses the lower ones' \
    $'\ttree.build()\n' $'\n'
row K14 internal/sim/capacity.go 'FuzzCapacityPass TestCapacityPassMatchesRunOnce' ./internal/sim \
    'held records each object'"'"'s first warm-up key, not its last: the tree the measured requests start from ranks an object by a utility it has outgrown' \
    'if i < warm {' 'if i < warm && s.held[o] < 0 {'

# --- the zero-target skip: an object its policy never caches costs no cache work
#
# Under a per-object price column (the oracle's, an underestimate's) a
# request whose target is 0 skips the cache in replayColumns, every tier
# in hierarchyRunOnce and the tree in the capacity pass (DESIGN.md §5a
# "Targets from `sim`"). The skip moves no answer, so a fault that skips
# too little is work a counting policy sees, and one that skips too much
# or drops a term moves an answer.

row Q1 internal/sim/sim.go 'TestZeroTargetSkipsTheCache TestGoldenTables TestAnswerLedger' './internal/sim ./internal/experiments' \
    'replayColumns skips a zero-target request under a per-request price too: an EWMA-priced object loses the frequency a later positive target ranks it by' \
    'if targets[j] > 0 || price.perRequest {' 'if targets[j] > 0 {'
row Q2 internal/sim/hierarchy.go TestZeroTargetSkipsTheCache ./internal/sim \
    'the hierarchy sends zero-target requests through every tier again: no answer moves (TestHierarchySkipMatchesEveryAccess passes it), the cache work comes back' \
    'if target > 0 {' 'if target >= 0 {'
row Q3 internal/sim/capacity.go 'TestCapacityPassMatchesRunOnce FuzzCapacityPass' ./internal/sim \
    'the pass'"'"'s zero-target branch adds no value: a member misses an object it does not cache, but a fast path still serves it at once' \
    $'\t\t\t\tif servable {\n\t\t\t\t\ta.value += obj.Value\n\t\t\t\t}\n\t\t\t}\n\t\t\tcontinue' $'\t\t\t\t_ = servable\n\t\t\t}\n\t\t\tcontinue'

# --- the cache's specification: core.Cache against a map-based model -----------
#
# FuzzCacheModel replays random scripts of accesses and truncations
# through core.Cache and through modelCache, its specification over a
# map (internal/core/model_test.go); its seed corpus covers every
# policy in both eviction modes.

row C1 internal/core/cache.go FuzzCacheModel ./internal/core \
    'makeRoom evicts an entry whose key equals the requester'"'"'s, not only strictly cheaper ones' \
    'if int(vid) == selfID || v.utility >= utility {' 'if int(vid) == selfID || v.utility > utility {'
row C2 internal/core/heap.go FuzzCacheModel ./internal/core \
    'the heap'"'"'s tiebreak inverted: of two entries with one key, the more recently requested evicts first' \
    'return ea.last < eb.last' 'return ea.last > eb.last'
row C3 internal/core/cache.go FuzzCacheModel ./internal/core \
    'partial eviction takes one byte past the shortfall from each victim' \
    $'\t\t\tif take > shortfall {\n\t\t\t\ttake = shortfall\n' $'\t\t\tif take > shortfall+1 {\n\t\t\t\ttake = shortfall + 1\n'
row C4 internal/core/cache.go FuzzCacheModel ./internal/core \
    'an aging cache never raises its inflation value L to a victim'"'"'s key' \
    'if c.aging && v.utility > c.inflation {' 'if c.aging && v.utility > c.inflation && len(c.victims) < 0 {'

# --- aging: GreedyDual's L lives in core.Cache ----------------------------------
#
# Policies are values; the one mutable policy state, GreedyDual's
# inflation value L, is the cache's, and only core.Ages policies use it.

row A1 internal/core/cache.go 'TestTapeReplayBitIdentical FuzzCapacityPass TestCapacityPassMatchesRunOnce TestPBEndStateIsSection23Optimum' ./internal/sim \
    'Access and makeRoom age every policy: PB, IB, LRU and the rest key L + utility and raise L on eviction' \
    $'\tif c.aging {\n\t\tutility = c.inflation + utility' $'\tif true {\n\t\tutility = c.inflation + utility' \
    'if c.aging && v.utility > c.inflation {' 'if v.utility > c.inflation {'

# --- shared replays: one trajectory per capacity, one column per member -------
#
# Unless the estimator observes (only EWMA does), the members of a group
# at one capacity share one core.Cache replay and each scores it from its
# own bandwidth column, and a policy that reads no bandwidth has no
# estimator (DESIGN.md §5a "Variability never enters the cache unless the
# estimator observes").

row V1 internal/sim/capacity.go TestGroupMatchesRun ./internal/sim \
    'sharing ignores whether the Estimator observes: the sigmas of an EWMA cell share the first sigma'"'"'s trajectory (an EWMA row is a group of its own, so no table groups them: sim'"'"'s tests hold RunGroup to it)' \
    '!cfg.observes() && g.members[hi]' 'g.members[hi]'
row V5 internal/sim/sim.go 'TestGoldenTables TestGroupMatchesRun' './internal/experiments ./internal/sim' \
    'EWMA reports that its prices observe nothing: the share key drops its member, and the sigmas of each EWMA cell share one trajectory' \
    'func (EWMA) observes() bool { return true }' 'func (EWMA) observes() bool { return false }'
row B1 internal/core/gds.go 'TestGroupCounts TestBandwidthBlindPoliciesIgnoreEstimators' './internal/experiments ./internal/sim' \
    'core.ReadsBandwidth is true for IF and LFU: their estimator rows replay the oracle'"'"'s trajectories under keys of their own' \
    'case frequencyPolicy, lruPolicy:' 'case lruPolicy:'
row B2 internal/core/gds.go TestGoldenTables ./internal/experiments \
    'core.ReadsBandwidth is false for PB and IB: their estimator rows are scored as the oracle'"'"'s' \
    'case frequencyPolicy, lruPolicy:' 'case frequencyPolicy, lruPolicy, hybridPolicy:'
row V2 internal/sim/sim.go 'TestGroupMatchesRun TestGoldenTables' './internal/sim ./internal/experiments' \
    'every member of a shared replay accumulates from member 0'"'"'s bandwidth column' \
    'bw, s := cols[k].at(i, o), &sums[k]' 'bw, s := cols[0].at(i, o), &sums[k]'
row V3 internal/sim/capacity.go TestGroupMatchesRun ./internal/sim \
    'each member indexes its column per request or per object as member 0 does (no table mixes the two in one group)' \
    $'\t\t\t\tcols = append(cols, cfg.Arena.column(one, seed, rp))\n' $'\t\t\t\tcols = append(cols, cfg.Arena.column(one, seed, rp))\n\t\t\t\tcols[len(cols)-1].perRequest = cols[0].perRequest\n'

# --- the oracle kernel: one target per object per run, one hot entry -------------
#
# Under the oracle every sim loop reads each object's target from a
# column computed once per run (oracleTargets) and hands it to
# core.Cache.AccessWithTarget; the 40-byte entry an access touches
# carries the object's frequency and last request, which is also the
# heap's tiebreaker (DESIGN.md §5a "Dense ID-indexed tables").

row T1 internal/sim/sim.go 'TestTapeReplayBitIdentical TestHierarchySingleNodeMatchesRun' ./internal/sim \
    'the once-per-run target column prices every object at the first path'"'"'s price' \
    'policy.Target(obj, price.inst[o])' 'policy.Target(obj, price.inst[0])'
row T2 internal/core/cache.go TestEqualUtilityEvictsLeastRecentlyRequested ./internal/core \
    'an entry'"'"'s last request is recorded only when it is inserted: a hit leaves the heap'"'"'s tiebreaker stale' \
    $'\te.freq++\n\te.last = now\n' $'\te.freq++\n' \
    $'\t\t\t\te.utility = utility\n\t\t\t\tc.heapPush(id)' $'\t\t\t\te.utility = utility\n\t\t\t\te.last = now\n\t\t\t\tc.heapPush(id)'

# --- estimate columns: what the cache prices each request at --------------------
#
# Every estimator compiles, per replay, the bandwidth the cache prices
# each request at and the target at that price; the one request loop
# reads that column (DESIGN.md §5a "Targets from `sim`"). Each fault
# prices some request at a bandwidth its estimator never gave it.

row E1 internal/sim/sim.go 'TestTapeReplayBitIdentical TestGoldenTables TestEstimateColumns' './internal/sim ./internal/experiments' \
    'the EWMA column prices a request after observing it: the cache sees the bandwidth the transfer has not had yet' \
    $'\t\tdst[i] = paths[o].Estimate()\n\t\tpaths[o].Observe(observed.at(i, o))' $'\t\tpaths[o].Observe(observed.at(i, o))\n\t\tdst[i] = paths[o].Estimate()'
row E2 internal/sim/sim.go 'TestGoldenTables TestEstimateColumns' './internal/sim ./internal/experiments' \
    'the probe column draws one extra probe before a path'"'"'s first request: the k-th request reads the (k+1)-th probe' \
    $'\t\t\tph.loss = loss\n\t\t}\n' $'\t\t\tph.loss = loss\n\t\t\tph.rng.NormFloat64()\n\t\t\tph.rng.NormFloat64()\n\t\t}\n'
row E3 internal/sim/sim.go TestUnderestimateIsOracleOverScaledMeans ./internal/sim \
    'Underestimate prices the utility at the unscaled mean (its target stays at E times the mean)' \
    $'\t\t\thit, _, _, evicted, _ = cache.AccessWithTarget(obj, targets[j], price.inst[j], rp.time[i])' $'\t\t\tbw := price.inst[j]\n\t\t\tif _, ok := cfg.Estimator.(Underestimate); ok {\n\t\t\t\tbw = rp.means[o]\n\t\t\t}\n\t\t\thit, _, _, evicted, _ = cache.AccessWithTarget(obj, targets[j], bw, rp.time[i])'
row E4 internal/proxy/proxy.go TestProxyShardedEndToEnd ./internal/proxy \
    'the live /stats estimate averages every shard, the zero estimates of shards that never measured the path included' \
    'if e := st.est[i].Estimate(); e > 0 {' 'if e := st.est[i].Estimate(); e >= 0 {'

# --- the exact partition: a flat run is a one-edge hierarchy --------------------
#
# sim.Metrics carries the four byte fractions for both simulators; a flat
# run derives edge and origin from the whole-byte sums the hierarchy
# divides, so the cluster loop at one edge and one level and a flat run
# agree bit for bit. That is why HierarchyConfig.withDefaults folds such
# a point into its flat Config, and only such a point.

row P1 internal/sim/sim.go TestHierarchySingleNodeMatchesRun ./internal/sim \
    'a flat run'"'"'s origin fraction is 1 - cached/watched, not (watched - cached)/watched: off by an ulp in a few cells of the grid (no table prints a flat run'"'"'s origin fraction)' \
    'm.OriginByteFrac = (watched - t.cached) / watched' 'm.OriginByteFrac = 1 - m.TrafficReductionRatio'
row P2 internal/sim/hierarchy.go 'TestGroupCounts TestOneNodeIsFlat' './internal/experiments ./internal/sim' \
    'withDefaults no longer folds a one-edge, one-level point: the hierarchy'"'"'s 1x1 rows replay apart from figure5'"'"'s PB group' \
    'if err == nil && c.Levels == 1 && c.Edges == 1 {' 'if err == nil && c.Levels == 1 && c.Edges == 1 && c.Peering == "" {'
row P3 internal/sim/hierarchy.go TestOneNodeIsFlat ./internal/sim \
    'the fold also takes one edge under a parent tier: its parent never serves a byte' \
    'if err == nil && c.Levels == 1 && c.Edges == 1 {' 'if err == nil && c.Edges == 1 {'

# --- answers across tables: one call scores what later calls ask for --------
#
# Arena.ScorePending is the one code that reads or writes the arena's
# answers: a round's call scores every pending member of each share key
# its points ask for, the members other tables declared included, and the
# arena keeps their Metrics for the rounds that ask later (DESIGN.md §5a
# "Groups across calls"); each fault hands a point an answer that is not
# its own, or scores a key's members in more calls than one. The share
# key is also the one grouping rule (K5, V4, K7), and every configuration
# has one: withDefaults refuses a value that cannot key a map (X6).

row X1 internal/sim/share.go 'TestDeclaredMembersMatchRun TestDeclaredMembersMatchRunConcurrent' ./internal/sim \
    'the share key drops Seed: another seed'"'"'s runs answer the call' \
    $'\tcfg.Arena, cfg.Parallelism = nil, 0\n' $'\tcfg.Arena, cfg.Parallelism, cfg.Seed = nil, 0, 0\n'
row X2 internal/sim/share.go 'TestDeclaredMembersMatchRun TestDeclaredTablesByteIdentical' './internal/sim ./internal/experiments' \
    'the member key drops Variation: every variability at one capacity takes the answer stored last at that capacity' \
    $'\t\t\t\te.answers[m] = scored[0][k]\n' $'\t\t\t\te.answers[Member{CacheBytes: m.CacheBytes}] = scored[0][k]\n' \
    $'\t\t\tms[i] = entries[j].answers[members[j][k]]\n' $'\t\t\tms[i] = entries[j].answers[Member{CacheBytes: members[j][k].CacheBytes}]\n'
row X3 internal/sim/share.go 'TestDeclaredMembersMatchRun TestDeclaredTablesByteIdentical' './internal/sim ./internal/experiments' \
    'the share key drops the Estimator: an EWMA or underestimating row takes the oracle row'"'"'s answer' \
    $'\tcfg.Arena, cfg.Parallelism = nil, 0\n' $'\tcfg.Arena, cfg.Parallelism, cfg.Estimator = nil, 0, nil\n'
row X4 internal/sim/share.go 'TestDeclaredMembersMatchRun TestDeclaredTablesByteIdentical' './internal/sim ./internal/experiments' \
    'store skips extras: a call stores only the first member it scored, and the rest are answered with zero Metrics' \
    'for k, m := range e.pending {' 'for k, m := range e.pending[:1] {'
row X6 internal/sim/sim.go TestUnkeyableValuesRefused ./internal/sim \
    'withDefaults lets a policy or variability that cannot key a map through: hashing its share key or column key panics' \
    $'\tif !keyable(c) {\n' $'\tif false {\n'

# --- release: the arena forgets only what nothing can still read ------------

forget='./internal/sim ./internal/experiments'
row F1 internal/sim/share.go TestArenaForgetsAnsweredInputs "$forget" \
    'release ignores the pending members: a later table recompiles the tapes and columns an earlier one released' \
    $'\tfor key, e := range a.answers {\n\t\tfor _, m := range e.pending {' $'\tfor key, e := range a.answers {\n\t\tfor _, m := range e.pending[:0] {'
row F2 internal/sim/share.go 'TestArenaForgetsAnsweredInputs TestScorePendingHoldsLaterGroups TestRefinedTablesHoldTheirTapes' "$forget" \
    'release is never called: every tape and column stays to the end of the arena' \
    $'\t\ta.release(norm, slices.Concat(fams[f+1:]...))\n' $'\t\t_ = f\n' \
    $'\ta.release(nil, nil)\n' ''
row F3 internal/experiments/engine.go TestRefinedTablesHoldTheirTapes "$forget" \
    'Stream takes no hold: a table streamed alone recompiles its tapes in every refinement round' \
    $'\t\ts.Arena.Hold(p.meta.Name, cfgsOf(p.coarse))\n\t\tdefer' $'\t\tdefer'
row F4 internal/sim/share.go TestScorePendingHoldsLaterGroups "$forget" \
    'release ignores the later groups of the call: an undeclared group recompiles what an earlier group of its call released' \
    'a.release(norm, slices.Concat(fams[f+1:]...))' 'a.release(norm, slices.Concat(fams[f+1:][:0]...))'
row F5 internal/experiments/engine.go TestArenaForgetsAnsweredInputs "$forget" \
    'Declare holds nothing: an adaptive table whose coarse round another table answered recompiles its columns' \
    $'\t\tif p.refine != nil {\n\t\t\ts.Arena.Hold(p.meta.Name, cfgsOf(p.coarse))\n\t\t}\n' ''
row X5 internal/sim/share.go 'TestScorePending TestGroupCounts' './internal/sim ./internal/experiments' \
    'ScorePending skips one-member groups: their points are never scored and read zero Metrics' \
    $'\tfor _, is := range groups {\n' $'\tfor _, is := range groups {\n\t\tif len(is) == 1 {\n\t\t\tcontinue\n\t\t}\n'
row K5 internal/sim/share.go 'TestGoldenTables TestDeclaredMembersMatchRun' './internal/experiments ./internal/sim' \
    'the share key drops the policy: one policy scores every policy'"'"'s rows' \
    $'\tcfg.Arena, cfg.Parallelism = nil, 0\n' $'\tcfg.Arena, cfg.Parallelism, cfg.Policy = nil, 0, nil\n'
row V4 internal/sim/share.go 'TestScorePending TestGroupCounts' './internal/sim ./internal/experiments' \
    'GroupOf puts every configuration of a round in one group: one call scores the last key'"'"'s pending members with the first configuration'"'"'s policy, and the other keys'"'"' points read answers that are not theirs' \
    $'\t\t\tid = len(seen)\n' $'\t\t\tid = 0\n'
row K7 internal/sim/share.go TestScorePending ./internal/sim \
    'the hierarchy key drops CacheBytes: a topology'"'"'s five cache sizes are one group, so one shard owns them all (the answers stay right: ScorePending runs each member; at 2 shards the set-wide deal gives the four topologies the shards their alternating rows had, so no ownership pin sees it)' \
    $'\t\tcfg.CacheBytes, cfg.Variation = 0, nil\n\t}\n' $'\t\tcfg.CacheBytes, cfg.Variation = 0, nil\n\t}\n\tif cfg.Levels > 0 {\n\t\tcfg.CacheBytes = 0\n\t}\n'

# --- ownership: shards own families, dealt once over the whole set --------------
#
# A point belongs to the shard that owns its unit (DESIGN.md §4a
# "Sharding"): the units of every simulated table's coarse points
# (sim.UnitsOf: a family of the groups that take the capacity pass, or
# any other group) are dealt once per scale and shard count, each to the
# shard with the least weight so far, a pure function of the Scale that
# every process computes the same; a point the set does not hold is
# dealt within its round, a round of single points round robin.

row O1 internal/experiments/shard.go TestShardedWorkSumsToSingle ./internal/experiments \
    'ownership by index again: every group is split across the shards and replayed by each' \
    $'for i, o := range d.owners(pts, base) {\n\t\town[i] = o == s.Shard.Index' $'for i := range d.owners(pts, base) {\n\t\town[i] = (base+i)%s.Shard.Count == s.Shard.Index'
row O2 internal/experiments/engine.go TestOwnershipIsAFunctionOfTheRound ./internal/experiments \
    'owners computed from the points the resume journal cannot answer: a resumed shard deals the rest out anew and emits rows another shard owns' \
    $'\towned, err := x.owned(pts, base)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n' $'\towned := make([]bool, len(pts))\n\tvar open []planPoint\n\tvar at []int\n\tfor i, pt := range pts {\n\t\tif _, ok := x.Journal.replay(x.table, base+i); ok {\n\t\t\towned[i] = true\n\t\t} else {\n\t\t\topen, at = append(open, pt), append(at, i)\n\t\t}\n\t}\n\townOpen, err := x.owned(open, base)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\tfor k, own := range ownOpen {\n\t\towned[at[k]] = own\n\t}\n'
row O3 internal/experiments/shard.go 'TestOwnershipIsAFunctionOfTheRound TestShardOwnershipPartitions' ./internal/experiments \
    'every round deals its units out from shard 0, not from its base: a refinement round of single points is no longer index mod Count' \
    'o := leastFrom(load, (base+len(ownerOf))%count)' 'o := leastFrom(load, len(ownerOf)%count)'
row O5 internal/experiments/shard.go 'TestDealWeightsIsGreedy TestShardOwnershipPartitions' ./internal/experiments \
    'units dealt out round robin whatever their weight, in the set-wide deal and in a round'"'"'s: a heavy unit is not balanced by the light ones after it' \
    'load[s] < load[o] {' 'load[s] < 0 {'
row O6 internal/sim/share.go TestShardedWorkSumsToSingle './internal/sim ./internal/experiments' \
    'each group is dealt as its own unit again: the groups of one family land on different shards, and each shard ranks the tapes (ranks= sums beyond one process'"'"'s)' \
    $'\t\t\tu.unit[key] = f\n' $'\t\t\tu.unit[key] = f\n\t\t\tdelete(fams, fam)\n'
row O7 internal/experiments/engine.go TestOwnershipIsAFunctionOfTheRound ./internal/experiments \
    'the deal is built from the keys passed to Declare, not from the whole set: a run of one -only key owns other rows than a run of every table' \
    $'func Declare(s Scale, keys ...string) error {\n' $'func Declare(s Scale, keys ...string) error {\n\tif s.Shard.Count > 1 {\n\t\tvar exps []Experiment\n\t\tfor _, key := range keys {\n\t\t\te, _ := ExperimentByKey(key)\n\t\t\texps = append(exps, e)\n\t\t}\n\t\td, err := newDeal(s, exps, s.Shard.Count)\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n\t\tunsharded := s\n\t\tunsharded.Shard = Shard{}\n\t\tdeals.Lock()\n\t\tdeals.m[dealKey{unsharded.Fingerprint(), s.Shard.Count}] = d\n\t\tdeals.Unlock()\n\t}\n'
row O4 internal/experiments/engine.go TestCapacityGroupsHoldOwnedRows ./internal/experiments \
    'a foreign point neither the journal nor the exchange answers is formatted from zero Metrics: a shard with no exchange refines from metrics no shard computed' \
    $'\t\tms, err := x.Arena.ScorePending(cfgs, x.parallelism())\n' $'\t\tms, err := x.Arena.ScorePending(cfgs, x.parallelism())\n\t\tif !own {\n\t\t\tms = make([]sim.Metrics, len(cfgs))\n\t\t}\n'

# --- merge: a sharded run's journals are one whole run -------------------------
#
# A shard's journal is its only output; `figures -merge` folds the
# journals and refuses, from their stamps, a set that is not every shard
# of one run exactly once, and, from each table's end record, a table
# that is short of its row count (DESIGN.md §4a).

row J1 internal/experiments/journal.go TestMergeJournalsRefusals ./internal/experiments \
    'MergeJournals drops the missing-shard check: a merge given one of two journals is refused only where a gap happens to show, and never says a shard is missing' \
    'if i := slices.Index(by, ""); i >= 0 {' 'if i := slices.Index(by, ""); i >= 0 && i < 0 {'
row J2 internal/rowlog/set.go TestMergeJournalsRefusals ./internal/experiments \
    'Table.Complete drops the comparison with the ended row count: a shard journal cut before the last row of a table merges silently short' \
    'if n, ok := t.Ended(); ok && len(t.rows) != n {' 'if n, ok := t.Ended(); ok && len(t.rows) != n && n < 0 {'

# --- idle shards: nothing waits on a tick or on rows it could have scored -----
#
# A shard's push log drains the moment the shard closes (the pusher
# blocks only on an empty log, and Close always kicks it), and every
# fixed grid streams before the first adaptive table, where the shards
# trade metrics (DESIGN.md §4a "The push log drains on close", §5a
# "Fixed grids stream before the first exchange").

row I1 internal/collect/client.go TestCloseWakesThePusher ./internal/collect \
    'Close kicks the pusher only while records are left: a shard whose log is already confirmed waits out its drain bound' \
    $'\tc.closed = true\n\tdown := c.down\n' $'\tc.closed = true\n\tdown := c.down\n\tremaining := len(c.log) - c.pushed\n' \
    $'\tselect {\n\tcase c.kick <- struct{}{}:\n\tdefault:\n\t}\n\tselect {\n\tcase <-c.drained:' \
    $'\tif remaining > 0 {\n\t\tselect {\n\t\tcase c.kick <- struct{}{}:\n\t\tdefault:\n\t\t}\n\t}\n\tselect {\n\tcase <-c.drained:'
row I2 internal/experiments/engine.go TestFixedGridsStreamBeforeExchanges ./internal/experiments \
    'hierarchy back after refined-esigma: a shard that reaches refined-e first waits there with its hierarchy rows unscored' \
    $'\t\t{"hierarchy", "hierarchy.csv", &hierarchy, nil},\n' '' \
    $'\t\t{"refined-esigma", "refined_esigma_sweep.csv", &refinedESigmaSweep, nil},\n' \
    $'\t\t{"refined-esigma", "refined_esigma_sweep.csv", &refinedESigmaSweep, nil},\n\t\t{"hierarchy", "hierarchy.csv", &hierarchy, nil},\n'

# --- sampling: the Zipf guide table is exact ----------------------------------

row Z1 internal/dist/dist.go TestZipfGuideMatchesFullSearch ./internal/dist \
    'the guide bracket narrowed to end at guide[j]: the ranks of u'"'"'s own quantile past its first are never drawn' \
    'z.guide[min(j+2, z.n)]' 'z.guide[j]'

# --- locks: par.Guarded, TestNoBlockingUnderLock and -race -------------------
#
# The proxy's state is reachable only inside par.Guarded's With and Read,
# which release the lock however their function leaves it: a Lock never
# unlocked and a return with the lock held cannot be written (DESIGN.md
# §9). What can still be written — blocking while the lock is held, a
# pointer to the state kept past the call — is failed here.

row G1 internal/par/guarded.go TestGuardedReleases ./internal/par \
    'Guarded.With unlocks without defer: a panic in its function leaves the lock held' \
    $'\tg.mu.Lock()\n\tdefer g.mu.Unlock()\n\tfn(&g.v)' $'\tg.mu.Lock()\n\tfn(&g.v)\n\tg.mu.Unlock()'

race='-race -timeout 180s ./internal/proxy ./internal/cluster'
row S1 internal/proxy/proxy.go 'TestNoBlockingUnderLock TestClusterParentDeathMidRelay' "$race" \
    'runRelay fetches from the upstream inside its With: the shard is locked for the whole transfer' \
    $'\tfetched, bps, usedIdx, err := p.fetchOrigin(ctx, sh, meta, rt, rl)\n\trl.finish(err)\n\tp.stats.bytesFetched.Add(fetched)\n\tp.addTierBytes(usedIdx, fetched)\n\n\tsh.state.With(func(st *shardState) {\n' \
    $'\tsh.state.With(func(st *shardState) {\n\t\tfetched, bps, usedIdx, err := p.fetchOrigin(ctx, sh, meta, rt, rl)\n\t\trl.finish(err)\n\t\tp.stats.bytesFetched.Add(fetched)\n\t\tp.addTierBytes(usedIdx, fetched)\n'
row S4 internal/proxy/proxy.go TestNoBlockingUnderLock ./internal/proxy \
    'time.Sleep inside serveObject'"'"'s With (before the walk no test failed it: the shard only got slower)' \
    $'\t\tsh.state.With(func(st *shardState) {\n\t\t\tnow := p.now()' $'\t\tsh.state.With(func(st *shardState) {\n\t\t\ttime.Sleep(time.Microsecond)\n\t\t\tnow := p.now()'
row S3 internal/proxy/proxy.go 'TestProxyShardedStress TestClusterInvariantStress' "$race" \
    'serveObject keeps the *shardState its With hands it and writes inflight through it after With returns' \
    $'\tvar rl *relay\n' $'\tvar rl *relay\n\tvar leaked *shardState\n' \
    $'\t\trl = st.inflight[meta.ID]\n' $'\t\tleaked = st\n\t\trl = st.inflight[meta.ID]\n' \
    $'\t})\n\tlapped := false\n' $'\t})\n\tif prev := leaked.inflight[meta.ID]; prev != nil {\n\t\tleaked.inflight[meta.ID] = prev\n\t}\n\tlapped := false\n'

if ((bad > 0)); then
    echo "mutate-check: $bad checks failed over $rows rows: the table no longer records what the guards do" >&2
    exit 1
fi
echo "mutate-check: $rows rows, every fault failed by the guards its row names"
}

main "$@"
