#!/bin/sh
# Repository gate: vet, build everything, and run the full test suite —
# including the randprog differential fuzz loops — under the race detector.
# The parallel bench harness and the per-Machine prepared-instruction table
# are only trustworthy if this stays clean.
set -eux

cd "$(dirname "$0")"

# checked runs a go test command line given after it (env assignments go
# through env). go test passes silently when a -run, -bench or -fuzz
# pattern matches nothing, so a renamed or deleted test would stay named
# here and quietly stop running. checked first requires, with go test
# -list, that each pattern on the line lists a test of its kind in every
# package on the line and that every |-separated alternative lists one.
# -run '^$' (run no test) is not checked.
checked() {
    pkgs= prev=
    for arg; do
        case "$arg" in .|./*) pkgs="$pkgs $arg" ;; esac
    done
    for arg; do
        case "$prev" in
        -run) [ "$arg" = '^$' ] || listed 'Test|Fuzz|Example' -run "$arg" $pkgs ;;
        -bench) listed Benchmark -bench "$arg" $pkgs ;;
        -fuzz) listed Fuzz -fuzz "$arg" $pkgs ;;
        esac
        case "$arg" in
        -bench=*) listed Benchmark -bench "${arg#-bench=}" $pkgs ;;
        -fuzz=*) listed Fuzz -fuzz "${arg#-fuzz=}" $pkgs ;;
        esac
        prev=$arg
    done
    "$@"
}

# listed KIND FLAG PATTERN PKG...: the check above for one pattern; KIND
# is the name prefix FLAG selects (Benchmark for -bench).
listed() {
    kind=$1 flag=$2 pattern=$3 names=
    shift 3
    for pkg; do
        found="$(go test -list "$pattern" "$pkg" | grep -E "^($kind)" || true)"
        if [ -z "$found" ]; then
            echo "ci.sh: $flag '$pattern' lists nothing in $pkg" >&2
            exit 1
        fi
        names="$names
$found"
    done
    for alt in $(printf '%s\n' "$pattern" | tr '|' ' '); do
        if ! printf '%s\n' "$names" | grep -Eq -- "$alt"; then
            echo "ci.sh: $flag alternative '$alt' lists nothing in $*" >&2
            exit 1
        fi
    done
}

go vet ./...
# The robustness layer gates every other package's failures, so it may not
# even carry a warning: vet it explicitly (and fail loudly if it vanishes).
go vet ./internal/irverify ./internal/triage
# perfbench is its own Go module (replace trapnull => ../), so neither
# go build ./... nor the test suite compiles it. Vet it so an internal/ API
# change that breaks the benchmark fails here, not in a benchmark run.
(cd perfbench && go vet .)
# perfbench's self-tests, among them the check that the traced compile-cold
# run's pass replica compiles exactly what the production pipeline does —
# run here so a drift fails CI, not only a benchmark run.
(cd perfbench && go test -short .)
# Format gate: every tracked Go file must be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go'))"
go build ./...
go test -race ./...
# Real interleavings: the container may have one CPU, where the race run
# above schedules goroutines one at a time. Re-run the worker-pool,
# concurrent-lookup, pooled-scratch and timeline tests at GOMAXPROCS 1 and 4
# so the sweep workers, concurrent cache lookups, compiles sharing the
# passes' workspace pools and concurrent metric publishes actually
# interleave.
checked go test -race -cpu 1,4 -run 'TestParallel|TestChaosDeterministicAcrossWorkers|TestTelemetryDeterminism' ./internal/bench
checked go test -race -cpu 1,4 -run 'TestCacheConcurrentLookups|TestParallelCompile|TestPooledScratchCarriesNoState' ./internal/jit
checked go test -race -cpu 1,4 -run 'TestRegistryConcurrentPublish|TestTimeline' ./internal/obs
# Same suite with the structural IR verifier enabled after every pass —
# catches pass-boundary corruption the differential tests would only see as
# a downstream mystery. TRAPNULL_VERIFY and TRAPNULL_ENGINE are read while
# the packages initialize, before go test starts recording which variables a
# test reads, so the test cache would serve these runs from an earlier run
# without the variable: every run that sets one passes -count=1.
TRAPNULL_VERIFY=1 go test -count=1 ./...
# Pin the -short deep-fuzz path (reduced smoke sweep, not a skip) and the
# native fuzz seed corpus; the full 3000-seed sweep already ran above.
checked go test -short -run TestDeepFuzz ./internal/randprog
checked go test -run FuzzDifferential ./internal/randprog
# Engine equivalence gate: the whole differential surface again with the
# reference switch interpreter as the default engine, so a regression in
# either engine (or in the closure/switch accounting contract) fails CI
# regardless of which engine the suite above happened to exercise. The
# example outputs (simulated cycles included) and the jasm engine-fuzz seeds
# run here too, so both engines must print and agree on the same numbers.
TRAPNULL_ENGINE=switch go test -count=1 ./internal/machine ./internal/bench ./internal/randprog ./examples/... ./internal/jasm
# The prepared table's layout: a fixed number of allocations per function
# whatever its size, the compact record sizes, and the float view of every
# operand kind on both engines. Named here so a rename fails CI instead of
# silently dropping out of the line above.
checked env TRAPNULL_ENGINE=switch go test -count=1 -run 'TestPrepareAllocsIndependentOfSize|TestPreparedRecordSizes|TestEngineFloatViewsOfOperands' ./internal/machine
# Bounded native fuzz smoke: arbitrary jasm programs through both engines.
# Its 5000-step limit ends every looping program, so the closure engine's
# hand-off to the interpreter at a stretch the limit could fire in meets
# shapes no hand-written test has.
checked go test -run '^$' -fuzz '^FuzzJasmEngines$' -fuzztime 20s ./internal/jasm
# Benchmark smoke: one iteration of every Exec micro-benchmark (both
# engines, checksum-verified) so the bench harness itself cannot rot.
checked go test -bench=Exec -benchtime=1x -run '^$' .
# Compile-side smoke: one iteration of the compile, phase and solver
# micro-benchmarks, which build their IR through the builder and the passes
# and are run by no test, and of the one-shot machine benchmark (New plus
# one Call on each engine).
checked go test -run '^$' -bench 'Compile|Whaley|Phase|Solve|OneShotRun' -benchtime=1x ./internal/jit ./internal/nullcheck ./internal/machine .
# Observability smoke: compile-and-run a sample program with tracing and
# remarks on, then validate the emitted Chrome trace parses and the fate
# ledger conserves (nulljit exits non-zero when it does not). The
# obs-off/obs-on equivalence test then runs under the reference switch
# engine too, so neither engine's measurements can drift when observed.
obs_trace="$(mktemp -t trapnull-trace.XXXXXX.json)"
trap 'rm -f "$obs_trace"' EXIT
go run ./cmd/nulljit -workload Assignment -config full -remarks -profile -trace "$obs_trace" > /dev/null
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); evs=d['traceEvents']; assert evs and all(e.get('ph')=='X' for e in evs), 'bad trace events'" "$obs_trace"
checked go test -run 'TestObsEquivalence|TestFateConservation' ./internal/bench
checked env TRAPNULL_ENGINE=switch go test -count=1 -run TestObsEquivalence ./internal/bench
# Compile-cache gate. Every production path compiles directly: bench cells,
# policy recompiles and triage, which compiles once per check. The
# content-addressed cache's remaining user is perfbench, whose per-cell
# caches call it; its keying, bound, error handling and shared-entry
# immutability run here on their own.
checked go test -run 'TestCompileCache' ./internal/bench
checked go test -run 'TestCache|TestHashProgram|TestProjectConfig|TestParallelCompile' ./internal/jit
# Tiered differential gate: the full ladder — promotion, speculation,
# trap-triggered deoptimization — against the untiered engines, under the
# race detector and again with the reference switch interpreter as the
# untiered default, so the tiering layer can never drift from either engine.
# Attaching an execution profile must not change any tiered or governed
# run: the adaptive policies own the counters they decide from.
checked go test -race -run 'TestTiered|TestTierHook|TestObservationNeverSteers' ./internal/bench
checked env TRAPNULL_ENGINE=switch go test -count=1 -run 'TestTiered' ./internal/bench
checked go test -run 'TestSpecSet|TestKeySpec|TestApplySpeculation' ./internal/jit
# The adaptive controller both policies share: every generation binds the
# method's counter cells by ordinal across tier-2 and governed adopts, and
# ResetPrepared keeps governor state and an unchanged body's speculation
# counts and drops the rest of speculation. The hot countdown tier 0 shares
# with the untiered closure engine: it carries over a governed adopt, hands
# a loop over mid-invocation and lets a compiled caller reach a callee that
# turns hot later.
checked go test -race -run 'TestAdoptAliasesCounters|TestResetPreparedKeeps|TestResetPreparedKeepsSpeculationCounts|TestAdoptCarriesTierZeroCountdown|TestHotLoopHandsOverMidInvocation|TestCompiledCallerColdThenHotCallee' ./internal/machine
# Tiered bench smoke: the -tier table end to end on quick sizes (checksums
# verified per invocation), plus one tiered nulljit run that must deopt and
# converge on the lying-profile workload: nulljit exits non-zero on any
# invocation's checksum mismatch, and the output must log the deopt.
go run ./cmd/benchtab -tier -quick > /dev/null
storm="$(go run ./cmd/nulljit -workload LateNullStorm -tier -tier-reps 3)"
case "$storm" in
*"event       deopt"*) ;;
*)
    echo "nulljit LateNullStorm -tier logged no deopt" >&2
    exit 1
    ;;
esac
# -tier refuses the flags its run would ignore instead of accepting them.
if go run ./cmd/nulljit -workload LateNullStorm -tier -profile > /dev/null 2>&1; then
    echo "nulljit -tier accepted -profile, which it ignores" >&2
    exit 1
fi
# Robustness gate (governor + fault injection). The chaos pass replays the
# same seeded fault schedule under the race detector and on both engines —
# the reports must be byte-identical and every failure one the schedule
# armed. The governor differential pins governed Outcomes bit-identical to
# the untiered switch-engine oracle, and the degradation acceptance test
# requires governed steady state to beat all-implicit (and stay within 5%
# of all-explicit) on both arch models.
checked go test -race -run 'TestChaos|TestGovernor|TestDegradation|TestCellTimeout|TestSpecBudget' ./internal/bench
checked env TRAPNULL_ENGINE=switch go test -count=1 -run 'TestChaos|TestGovernor|TestDegradation' ./internal/bench
checked go test -run 'TestDemote|TestTrapSite|TestApplyDemotion|TestKeyDemote|TestCacheConcurrentLookups' ./internal/jit
go test ./internal/faultinject
# Robustness bench smoke: the degradation table and one seeded chaos sweep
# end to end on quick sizes (chaos exits non-zero only on a non-injected
# failure).
go run ./cmd/benchtab -degradation -quick > /dev/null
go run ./cmd/benchtab -chaos -chaos-seed 7 > /dev/null
# Ablation golden gate: the ablation and extension tables are purely
# simulated, so the full-size run must reproduce the checked-in output byte
# for byte.
go run ./cmd/benchtab -ablations | cmp - ablation_output.txt
# Telemetry plane gate. The timeline (flight recorder + trap-cost
# attribution) and the metrics snapshot are deterministic surfaces: two
# sweeps must render them byte-identical, and the merged Perfetto trace of a
# tiered sweep must carry the adaptive decisions as instant events.
tdir="$(mktemp -d -t trapnull-telemetry.XXXXXX)"
trap 'rm -f "$obs_trace"; rm -rf "$tdir"' EXIT
go run ./cmd/benchtab -quick -timeline "$tdir/tl1.txt" -metrics "$tdir/mx1.txt" > /dev/null
go run ./cmd/benchtab -quick -timeline "$tdir/tl2.txt" -metrics "$tdir/mx2.txt" > /dev/null
cmp "$tdir/tl1.txt" "$tdir/tl2.txt"
cmp "$tdir/mx1.txt" "$tdir/mx2.txt"
go run ./cmd/benchtab -tier -quick -trace "$tdir/tier-trace.json" -timeline "$tdir/tier-tl.txt" > /dev/null
# Adaptive-timeline golden gate: the quick -tier and -degradation timelines
# are purely simulated (logical clocks, simulated cycles) and identical at
# every -parallel value and on either engine, so each run must reproduce its
# checked-in file byte for byte, as the ablation gate does.
cmp "$tdir/tier-tl.txt" tier_timeline.txt
go run ./cmd/benchtab -degradation -quick -timeline "$tdir/degradation-tl.txt" > /dev/null
cmp "$tdir/degradation-tl.txt" degradation_timeline.txt
python3 -c "import json,sys; evs=json.load(open(sys.argv[1]))['traceEvents']; inst=[e for e in evs if e.get('ph')=='i']; assert inst, 'tier trace carries no instant (adaptive-decision) events'" "$tdir/tier-trace.json"
grep -q 'promote-t1' "$tdir/tier-tl.txt"
checked env TRAPNULL_ENGINE=switch go test -count=1 -run 'TestTelemetry|TestTieredTelemetry|TestAttributionConservation|TestExecProfileTieredAgree' ./internal/bench
# Benchdiff regression gate: the current tree's quick sweep must not regress
# the checked-in baseline (cycles are deterministic, so the tolerance only
# admits intentional cost-model changes — regenerate BENCH_baseline.json when
# making one). The gate itself is then proved live by planting a 10% cycle
# regression into a copy of the sweep and requiring benchdiff to reject it.
go run ./cmd/benchtab -quick -remarks -json > "$tdir/bench.json"
go run ./cmd/benchdiff BENCH_baseline.json "$tdir/bench.json"
python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
for cells in d['matrices'].values():
    for c in cells:
        if 'cycles' in c:
            c['cycles'] = c['cycles'] * 110 // 100
json.dump(d, open(sys.argv[2], 'w'))
" "$tdir/bench.json" "$tdir/bench-perturbed.json"
if go run ./cmd/benchdiff -quiet BENCH_baseline.json "$tdir/bench-perturbed.json" > /dev/null; then
    echo "benchdiff failed to catch a planted 10% cycle regression" >&2
    exit 1
fi
# Policy-sweep gates: the quick -tier and -degradation sweeps against their
# checked-in baselines. benchdiff reads the report kind from generated_by;
# steady and first cycles gate under the cycle tolerance, promotions, deopts,
# demotions, recompiles and pins on any change, and compile-to-peak (host
# time) is only reported. Each gate is proved live the same way: a planted
# 10% steady-cycle regression must be rejected.
for kind in tier degradation; do
    go run ./cmd/benchtab -$kind -quick -json > "$tdir/$kind.json"
    go run ./cmd/benchdiff -quiet "BENCH_${kind}_baseline.json" "$tdir/$kind.json"
    python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
for cells in d['matrices'].values():
    for c in cells:
        c['steady_cycles'] = c['steady_cycles'] * 110 // 100
json.dump(d, open(sys.argv[2], 'w'))
" "$tdir/$kind.json" "$tdir/$kind-perturbed.json"
    if go run ./cmd/benchdiff -quiet "BENCH_${kind}_baseline.json" "$tdir/$kind-perturbed.json" > /dev/null; then
        echo "benchdiff failed to catch a planted 10% $kind steady-cycle regression" >&2
        exit 1
    fi
done
