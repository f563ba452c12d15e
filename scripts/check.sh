#!/bin/sh
# Full verification: vet, build, and the whole test suite under the race
# detector (the experiment engine fans simulation cells out across
# goroutines, so races here are correctness bugs, not just flakes).
# Tier-1 (ROADMAP.md) is the subset `go build ./... && go test ./...`.
set -eux

cd "$(dirname "$0")/.."

# vet's copylocks check is what keeps a *prog.Program (it embeds a
# sync.Once, and suite programs are shared process-wide) from being copied
# by value. The race pass includes the shared-program tests: one grid at
# -j 8 racing for the memo (experiments.TestGridLinksEachProgramOnce) and
# concurrent callers of one key (prog.TestSharedConcurrentCallersGetOneBuild).
go vet ./...
go build ./...

# Every Go file is gofmt-formatted.
if [ -n "$(gofmt -l .)" ]; then
    gofmt -l . >&2
    echo "check.sh: the files above are not gofmt-formatted; run gofmt -w" >&2
    exit 1
fi

# The cell record format stays behind experiments.Grid: the schedulers
# outside internal/experiments drive a grid by name and index and never
# name a per-grid record type, constant, assembler or renderer.
if grep -rnE 'GridWorkstation|GridMultiprocessor|UniCellRecord|MPCellRecord|AssembleUni|AssembleMP|RenderUniSections|RenderMPSections' \
    --include='*.go' --exclude='*_test.go' internal/service cmd/expserve; then
    echo "check.sh: a scheduler names a per-grid symbol; drive the grid through experiments.Grid" >&2
    exit 1
fi

# One service binary and no registration handshake: the worker is
# expserve work, its first lease makes it known to the coordinator, and
# the OS model lives in internal/workstation. A second worker command, a
# register endpoint or a package of its own for the OS model is a second
# copy of what is already there.
if [ -e cmd/expworker ] || [ -e internal/osmodel ] ||
    grep -rnE '/api/register|cmd/expworker|internal/osmodel' --include='*.go' --exclude='*_test.go' .; then
    echo "check.sh: cmd/expworker, /api/register or internal/osmodel is back; use expserve work, the first lease and internal/workstation" >&2
    exit 1
fi

# One command runs every grid: cmd/experiments and expserve submit
# resolve -quick, -only and the subset flags (-subjects, -schemes,
# -contexts) through experiments.BindGridFlags. A command that builds a
# grid config by hand is a second copy of that resolution.
if grep -rnE 'DefaultUniConfig|QuickUniConfig|DefaultMPConfig|QuickMPConfig' \
    --include='*.go' --exclude='*_test.go' cmd; then
    echo "check.sh: a command builds a grid config by hand; resolve it with experiments.BindGridFlags" >&2
    exit 1
fi

# One section table: every -only section outside the grids is a row in
# internal/experiments (sections.go), and a command runs it by name
# through experiments.RunSection. A command that calls a section body
# itself is a second copy of that section's run and print.
if grep -rnE 'experiments\.(Table4|Figure2|Figure3|FormatTimeline|RunAblationsCtx|RunResponseCtx|RunPrefetchComparisonCtx|[A-Za-z]+SweepCtx)\(' \
    --include='*.go' --exclude='*_test.go' cmd; then
    echo "check.sh: a command calls a section body; run the section through experiments.RunSection" >&2
    exit 1
fi

# A driver advances a processor with core.Processor.Advance, which
# classifies a cycle and issues it in one pass. NextEvent stays as the pure
# classifier Advance is tested against; a driver that calls it and then
# Step walks the issue cascade twice per busy cycle again.
if grep -rn 'NextEvent()' --include='*.go' --exclude='*_test.go' . |
    grep -v -e '^./internal/core/fastforward.go:' -e '^./internal/core/processor.go:'; then
    echo "check.sh: a driver calls NextEvent(); advance the processor with Advance()" >&2
    exit 1
fi

# The core fetches an instruction in one place, fetchMisses, which
# issueSlot and the fused issue in advance share; what the fast-forward
# engine skips it reasons about through memsys.CountedInstFetch instead. A
# second FetchInst call site is a second copy of the blocking-miss rule.
# And Run's busy streak is retired (ROADMAP item 1): classifying a busy
# cycle is issuing it.
if [ "$(grep -rn 'FetchInst(' --include='*.go' --exclude='*_test.go' internal/core | wc -l)" -ne 1 ]; then
    echo "check.sh: internal/core must call FetchInst( from exactly one site (fetchMisses)" >&2
    exit 1
fi
if grep -rn 'busyStreak' --include='*.go' .; then
    echo "check.sh: busyStreak is back; Run classifies and issues every cycle in one pass" >&2
    exit 1
fi
# Run and RunUntilHalted hand the cascade their end cycle, and it issues in
# place and skips regions until then. Its one-cycle issuing entry is
# Advance's, for the lockstep multiprocessor driver; a loop in the core
# around that entry is the per-cycle round trip again.
if awk '/^func /{fn=$0} /\.adv[a]nce\(true(, oneCycle)?\)/ && fn !~ /\) Advance\(\)/ {print FILENAME ":" FNR ": " $0; bad=1} END{exit !bad}' \
    $(find internal/core -name '*.go' ! -name '*_test.go'); then
    echo "check.sh: only Advance may call the cascade's one-cycle issuing entry; pass Run's end to advance" >&2
    exit 1
fi

# One way to watch a cycle: the metrics event trace, which runs with
# fast-forward on. The per-cycle Trace hook, the skip cap for a
# push-timing memory system (the memory systems are pull-based, see
# internal/memsys) and the block hook nobody set are gone; so is every
# name they went by.
if grep -rnwE 'PullBasedTiming|NextCompletion|capCompletions|BlockHook|BlockEnd|TraceEvent' \
    --include='*.go' --exclude='*_test.go' .; then
    echo "check.sh: a removed hook or skip cap is back; observe through internal/metrics" >&2
    exit 1
fi

# One record of a context switch: the core's ctx-switch event, which
# core.Processor.TraceSwitches (mp.Config.SwitchTrace) records alone and
# on the unobserved path. The per-switch callback and the fuzzer's
# memory-hash chain over it are gone; a second switch hook is a second
# copy of that record.
if grep -rnwE 'SwitchWatch|maxChain|firstChainDiff' --include='*.go' .; then
    echo "check.sh: a context-switch hook is back; record switches with TraceSwitches" >&2
    exit 1
fi

# One splitmix64: the step and its finalizer are seeded.Stream and
# seeded.Mix, and every seeded consumer (chaos jitter, fault plans, the
# fuzzer's generator, per-cell seeds) draws from them. The finalizer's
# multiplier anywhere else is a second copy.
if grep -rn '0xBF58476D1CE4E5B9' --include='*.go' --exclude='*_test.go' . |
    grep -v '^./internal/seeded/'; then
    echo "check.sh: a second splitmix64; draw from seeded.Stream or seeded.Mix" >&2
    exit 1
fi

# One opcode table: internal/isa holds a row per opcode (mnemonic,
# operand form, register classes, immediate range, timing class), and the
# assembler, the disassembler, the Builder's operand checks and the fuzz
# reproducer read it. A mnemonic that names nothing but an opcode, spelled
# as a string anywhere else, is a second copy of the instruction set.
if grep -rnE '"(mtc1|fcmplt|sltu|fdivd)"' --include='*.go' --exclude='*_test.go' . |
    grep -v '^./internal/isa/'; then
    echo "check.sh: an opcode mnemonic is spelled outside internal/isa; read it from the opcode table" >&2
    exit 1
fi

# One ISA semantics: internal/core evaluates every opcode, for the
# pipeline (execute) and for the fuzzer's functional machine
# (Thread.Exec). A switch arm on ADDI or FSQRT anywhere else is a second
# evaluator; the independent reference lives in core's tests.
if grep -rnE 'case .*isa\.(ADDI|FSQRT)\b' --include='*.go' --exclude='*_test.go' . |
    grep -v '^./internal/core/'; then
    echo "check.sh: an opcode is evaluated outside internal/core; call core.Thread.Exec" >&2
    exit 1
fi

# One FNV-1a: internal/snapshot owns the constants, FoldBytes (bytes) and
# Fold (64-bit words); memory, architectural-state, machine, program and
# fuzz hashes are Folds, StateHash and the journal's DataHash FoldBytes.
# The prime or hash/fnv anywhere else is a second copy.
if grep -rnE '1099511628211|"hash/fnv"' --include='*.go' --exclude='*_test.go' . |
    grep -v '^./internal/snapshot/snapshot.go:'; then
    echo "check.sh: a second FNV-1a; fold with snapshot.Fold" >&2
    exit 1
fi

# The sweep planner opens a checkpoint once (snapshot.Open) and forks
# every cell of the group from that image (workstation.ResumeImageCtx).
# snapshot.Decode and workstation.ResumeCtx verify the container on
# every call, which is right for a one-off restore and is the per-fork
# audit the planner must not go back to.
if grep -rnE 'snapshot\.Decode\(|workstation\.ResumeCtx\(' \
    --include='*.go' --exclude='*_test.go' internal/experiments; then
    echo "check.sh: the sweep planner verifies per fork; open the image once and use ResumeImageCtx" >&2
    exit 1
fi

# A warm-up checkpoint lives in memory for the sweep that made it: there
# is no on-disk checkpoint cache, no self-healing fallback around it and
# no snapshot file I/O.
if grep -rnE 'checkpoint-dir|prefixCache|checkpointUnusable|SaveFileFS|snapshot\.(SaveFile|LoadFile)\(' \
    --include='*.go' --exclude='*_test.go' .; then
    echo "check.sh: checkpoints do not outlive their sweep; no on-disk cache" >&2
    exit 1
fi

# One journal rule: a journal replays only under the format version,
# configuration fingerprint and binary that wrote it, and anything else
# is one *FingerprintError. There is no binary-drift override, no second
# open or error type, no capped line scanner and no second FNV-1a.
if grep -rnE 'allow-binary-mismatch|OpenJournalAllow|BinaryMismatchError|JournalVersionError|scanCompleteLines|"hash/fnv"' \
    --include='*.go' --exclude='*_test.go' .; then
    echo "check.sh: one journal rule and one FNV-1a; see internal/experiments/journal.go" >&2
    exit 1
fi

# A job is its journal: the coordinator rebuilds a job from its journal
# header's fingerprint alone, so there is no spec file beside it, and the
# header carries no checkpoint stamp (forked and from-scratch cells are
# byte-identical; snapshot has one version number).
if grep -rnE 'spec\.json|specPath|CheckpointStamp|PayloadVersion' \
    --include='*.go' --exclude='*_test.go' .; then
    echo "check.sh: a job is its journal; no spec files, no checkpoint stamp" >&2
    exit 1
fi

# Functional memory keeps its pages in a two-level table keyed by page
# number (internal/mem): a lookup is two indexed loads, and Hash and the
# state walk read pages in ascending order without sorting. A page map is
# the lookup the table replaced.
if grep -rn 'map\[uint32\]\*page' --include='*.go' --exclude='*_test.go' internal/mem; then
    echo "check.sh: functional memory's pages live in its page table, not a map" >&2
    exit 1
fi

# One uniprocessor machine: workstation.NewMachine builds a processor over
# the cache hierarchy, and workstation.Machine.State walks it, for every
# driver (the workstation run, the fuzzer, the response study, asmrun, the
# root API). A hierarchy built anywhere else is a hand copy of that
# machine, and a fuzzer container kind of its own is a second walk.
# benchmark/ builds its own probe machines.
if grep -rnE 'cache\.NewHierarchy\(|NewHierarchyReusing\(' --include='*.go' --exclude='*_test.go' . |
    grep -v -e '^./internal/cache/' -e '^./internal/workstation/' -e '^./benchmark/' ||
    grep -rnE 'fuzz-uni|forkKind' --include='*.go' .; then
    echo "check.sh: build the uniprocessor machine with workstation.NewMachine and walk it with Machine.State" >&2
    exit 1
fi

# One machine forks: the workstation. A multiprocessor cell runs from
# cycle zero to completion (mp.RunCtx), so internal/mp seals no
# checkpoint and has no resume entry point.
if grep -rnE 'snapshot\.(Seal|Open)\(|func (CheckpointAtCtx|ResumeCtx|ResumeImageCtx)\(' \
    --include='*.go' --exclude='*_test.go' internal/mp; then
    echo "check.sh: the multiprocessor does not fork; only the workstation checkpoints" >&2
    exit 1
fi

# A job records a completion twice: in its journal (durable) and in its
# cell table (dispatch state). No third in-memory stream, and no endpoint
# serving one. The fabric has one invariant checker (CheckInvariants), and
# a grid takes a journal only through Grid.Run.
if grep -rnE 'CellEvent|handleCells|/cells"' --include='*.go' --exclude='*_test.go' . ||
    grep -rnE 'DirectoryInvariants|RunUniprocessorCtx|RunMultiprocessorCtx' --include='*.go' .; then
    echo "check.sh: one record of a completion, one directory checker, one way to journal a grid" >&2
    exit 1
fi

# A worker's crash is a lease nobody renews or completes, and a stalled
# worker's report is a completion after its lease expired: the service
# tests and the pass below make both through the coordinator's API. No
# process faults scripted into the worker, and no text form of a fault
# plan to feed them (the brackets keep the pattern from matching itself).
FAULTS='guard\.FaultKin[d]|ProcessFault[s]|ErrFaultInjecte[d]|ExitFaultInjecte[d]|die-mid-cel[l]|die-before-ac[k]|heartbeat-stal[l]'
if grep -rnE "$FAULTS" --include='*.go' . || grep -rnE "$FAULTS" scripts ||
    grep -rnE 'Layer\.Pars[e]\(|Layer\[K\]\) Pars[e]\(' --include='*.go' .; then
    echo "check.sh: scripted worker faults or the plan parser are back; abandon a lease through the API instead" >&2
    exit 1
fi

# A coordinator for one user: an expired cell is pending again at once,
# every submit is a job, and a worker is fed until its leases run out of
# attempts. No circuit breaker, job bound or redispatch backoff, and no
# wire field or header that carried them (the brackets keep the pattern
# from matching itself).
TRAFFIC='BreakerThreshol[d]|BreakerCooldow[n]|quarantinedUnti[l]|consecExpirie[s]|MaxJob[s]|RetryMilli[s]|retryMilli[s]|eligibleA[t]|StatusTooManyRequest[s]|RetryAfte[r]'
if grep -rnE "$TRAFFIC" --include='*.go' .; then
    echo "check.sh: service traffic control is back; the coordinator has no breaker, job bound or backoff" >&2
    exit 1
fi

go test -race ./...
# The service's slot wake-up, drain release and held /result handlers are
# timing-dependent: repeat that package so a rare interleaving shows.
go test -race -count=3 ./internal/service

# Second pass with the invariant checkers armed (GUARD_CHECKS=1 turns on
# the coherence/cache/pipeline audits in every guarded run). The env gate
# is read once per process, so this must be a separate test invocation.
GUARD_CHECKS=1 go test ./...

# Engine equivalence: the three block-loop drivers (core, workstation,
# mp) all run on internal/engine; the golden grid pins their outputs —
# stats, metrics streams, checkpoint/resume — to digests captured from
# the pre-unification hand-rolled loops. Any drift in guard cadence,
# sampling, cancellation, or watchdog behavior fails here first.
go test -count=1 -run 'TestEngineGolden' ./internal/engine

# Repository-benchmark smoke: one cold and one timed pass of the two
# workstation workloads (Table 7 cells; forked switch-cost/MSHR sweeps) at
# quick scale, well under a second each. The benchmark gates on byte
# identity between passes and exits non-zero on any differing cell, so a
# busy-path or checkpoint change that breaks reproducibility fails here.
go run ./benchmark -workload ws-table7 -smoke >/dev/null
go run ./benchmark -workload sweep-fork -smoke >/dev/null
# The same for the service path (two jobs through coordinator, journal,
# loopback HTTP and a worker).
go run ./benchmark -workload svc-grid -smoke >/dev/null
# And for the two multiprocessor workloads: the lockstep driver over the
# coherence fabric, and the stall-dominated cells whose divide chains run
# RunGuardedCtx → RunUntilHalted over the workstation hierarchy — where a
# busy-path change that taxes fast-forward would show.
go run ./benchmark -workload mp-table10 -smoke >/dev/null
go run ./benchmark -workload core-stall -smoke >/dev/null

# Chaos-mode determinism and observability, as subset grids of the
# experiments binary. Under -chaos every multiprocessor cell of a
# race-free app also runs unperturbed and fails unless its final memory
# is byte-identical (the grid's own check, exit 1 on divergence). The
# observability runs export per-grid JSON-lines and per-cell Chrome
# traces through the grid exporter, validated against the documented
# schemas (internal/metrics/export.go; trace_event phases).
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
go build -o "$OBS_DIR/experiments" ./cmd/experiments
"$OBS_DIR/experiments" -quick -only table10 -subjects ocean -schemes interleaved -contexts 2 -chaos 20260805 >/dev/null
"$OBS_DIR/experiments" -quick -only table10 -subjects barnes -schemes blocked -contexts 2 -chaos 7 -check-invariants >/dev/null
"$OBS_DIR/experiments" -quick -subjects R0 -schemes interleaved -contexts 2 \
    -metrics-out "$OBS_DIR/uni.jsonl" -trace-out "$OBS_DIR/uni.json" >/dev/null
"$OBS_DIR/experiments" -quick -subjects mp3d -schemes interleaved -contexts 2 \
    -metrics-out "$OBS_DIR/mp.jsonl" -trace-out "$OBS_DIR/mp.json" >/dev/null
go run ./cmd/obscheck "$OBS_DIR"/*.jsonl "$OBS_DIR"/*.json

# Interrupt-resume determinism: run a quick grid to completion, run it
# again but raise a real SIGINT after 3 journaled cells (-interrupt-after
# exercises the same signal path an operator's Ctrl-C does; expected exit
# code 3), then resume the partial journal and require the resumed table
# and -json output to be byte-identical to the uninterrupted run. A -j 1
# run of the same grid must print and dump the same bytes: -j decides
# no byte.
RES_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR" "$RES_DIR"' EXIT
# A real binary, not `go run`: go run collapses any non-zero child exit
# to its own exit 1, which would hide the documented code 3.
go build -o "$RES_DIR/experiments" ./cmd/experiments
"$RES_DIR/experiments" -quick -only table7 -j 2 \
    -json "$RES_DIR/full.json" -journal "$RES_DIR/full.journal" > "$RES_DIR/full.txt"
code=0
"$RES_DIR/experiments" -quick -only table7 -j 2 \
    -json "$RES_DIR/part.json" -journal "$RES_DIR/part.journal" \
    -interrupt-after 3 > "$RES_DIR/part.txt" || code=$?
[ "$code" -eq 3 ] # documented "interrupted" exit code
"$RES_DIR/experiments" -quick -only table7 -j 2 \
    -json "$RES_DIR/resumed.json" -resume "$RES_DIR/part.journal" > "$RES_DIR/resumed.txt"
diff "$RES_DIR/full.txt" "$RES_DIR/resumed.txt"
diff "$RES_DIR/full.json" "$RES_DIR/resumed.json"
"$RES_DIR/experiments" -quick -only table7 -j 1 \
    -json "$RES_DIR/serial.json" > "$RES_DIR/serial.txt"
diff "$RES_DIR/full.txt" "$RES_DIR/serial.txt"
diff "$RES_DIR/full.json" "$RES_DIR/serial.json"

# Checkpoint pass (two quick sweep runs of about half a second each): a
# forked sweep run (the default) must be byte-identical to
# -no-checkpoint, both in the tables and the -json dump.
"$RES_DIR/experiments" -quick -only sweeps -j 2 -no-checkpoint \
    -json "$RES_DIR/scratch.json" > "$RES_DIR/scratch.txt"
"$RES_DIR/experiments" -quick -only sweeps -j 2 \
    -json "$RES_DIR/forked.json" > "$RES_DIR/forked.txt"
diff "$RES_DIR/scratch.txt" "$RES_DIR/forked.txt"
diff "$RES_DIR/scratch.json" "$RES_DIR/forked.json"

# Differential-fuzz pass: the fixed-seed cross-scheme interleaving sweep
# (>=500 cells; exits 1 on any divergence) must print a byte-identical
# report at -j 8 and -j 1, and the checked-in reproducer (a deliberately
# broken TAS) must still fail with the documented divergence exit code 1.
FUZZ_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR" "$RES_DIR" "$FUZZ_DIR"' EXIT
go build -o "$FUZZ_DIR/interleavefuzz" ./cmd/interleavefuzz
"$FUZZ_DIR/interleavefuzz" -n 12 -seed 20260808 -j 8 > "$FUZZ_DIR/j8.txt"
"$FUZZ_DIR/interleavefuzz" -n 12 -seed 20260808 -j 1 > "$FUZZ_DIR/j1.txt"
diff "$FUZZ_DIR/j8.txt" "$FUZZ_DIR/j1.txt"
code=0
"$FUZZ_DIR/interleavefuzz" -quick \
    -replay internal/fuzz/testdata/corpus/fuzz-d6927cc28841f924 \
    > "$FUZZ_DIR/replay.txt" || code=$?
[ "$code" -eq 1 ] # divergence must reproduce

# Optional: FUZZ=1 scripts/check.sh adds ten seconds of FuzzRestore:
# mutated checkpoint payloads fed to every layer's RestoreState must fail
# typed, never panic or hang. It is the one pass with a fixed wall-clock
# budget rather than a fixed amount of work.
if [ -n "${FUZZ:-}" ]; then
    # -fuzzminimizetime 1x: the fabric seed is 50 KB, and by default each
    # input that finds new coverage is minimized for up to a minute.
    go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 10s -fuzzminimizetime 1x ./internal/snapshot
fi

# Distributed-service pass: the same quick table7 grid under the expserve
# coordinator with two chaos events — an abandoned lease (a worker that
# dies holding a cell) and the coordinator kill -9'd and restarted once
# on the same state dir and address — then the service's tables and -json
# output must be byte-identical to the single-process run above.
# The order is what makes both events land whatever the machine's speed
# (the grid takes a fraction of a second now that dispatch is
# event-driven): the dead worker's lease is taken before the survivor
# starts, so the first cell is its; the lease then pins the job open for
# a lease TTL, and the coordinator is killed inside that window, with the
# rest of the grid journaled by the survivor.
SVC_DIR="$(mktemp -d)"
SERVE_PID= STEADY_PID=
# A failing step must not leave the coordinator or the worker running.
trap 'kill $SERVE_PID $STEADY_PID 2>/dev/null || true; rm -rf "$OBS_DIR" "$RES_DIR" "$FUZZ_DIR" "$SVC_DIR"' EXIT
go build -o "$SVC_DIR/expserve" ./cmd/expserve

# Coordinator: port 0 picks a free port, -addr-file publishes it.
"$SVC_DIR/expserve" serve -dir "$SVC_DIR/state" -addr 127.0.0.1:0 \
    -addr-file "$SVC_DIR/addr" -lease-ttl 3s 2> "$SVC_DIR/serve1.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SVC_DIR/addr" ] && break; sleep 0.1; done
ADDR="http://$(cat "$SVC_DIR/addr")"

JOB=$("$SVC_DIR/expserve" submit -coordinator "$ADDR" -quick -only table7)

# The dead worker: one raw lease request, sent as HTTP/1.0 over bash's
# /dev/tcp (so the coordinator closes the connection after its reply),
# and never renewed, completed or released — what a worker killed mid-cell
# leaves behind. Its cell redispatches once the lease expires.
BODY='{"worker":"dead","max":1}'
printf 'POST /api/lease HTTP/1.0\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s' \
    "${#BODY}" "$BODY" > "$SVC_DIR/lease.req"
bash -c 'exec 3<>"/dev/tcp/${1%:*}/${1##*:}" && cat "$2" >&3 && cat <&3' \
    lease "$(cat "$SVC_DIR/addr")" "$SVC_DIR/lease.req" > "$SVC_DIR/dead.lease"
grep -q '"leaseId"' "$SVC_DIR/dead.lease"

# The survivor does the real work.
"$SVC_DIR/expserve" work -coordinator "$ADDR" -name steady -slots 2 -poll 100ms \
    2> "$SVC_DIR/steady.log" &
STEADY_PID=$!

# Kill -9 the coordinator mid-job (the dead worker's lease is still
# live) and restart it on the same state dir and address: the journal
# resumes the job with zero re-simulation, the worker just retries
# until the new process answers.
sleep 1
kill -9 "$SERVE_PID"
wait "$SERVE_PID" || true
"$SVC_DIR/expserve" serve -dir "$SVC_DIR/state" -addr "$(cat "$SVC_DIR/addr")" \
    -lease-ttl 3s 2> "$SVC_DIR/serve2.log" &
SERVE_PID=$!

"$SVC_DIR/expserve" wait -coordinator "$ADDR" -job "$JOB" \
    -out "$SVC_DIR/svc.txt" -json-out "$SVC_DIR/svc.json"

# Byte-identity against the single-process reference run above.
diff "$RES_DIR/full.txt" "$SVC_DIR/svc.txt"
diff "$RES_DIR/full.json" "$SVC_DIR/svc.json"

# Worker and coordinator drain cleanly on SIGTERM (exit 3 / 0).
kill "$STEADY_PID"
wcode=0; wait "$STEADY_PID" || wcode=$?
[ "$wcode" -eq 3 ]
kill "$SERVE_PID"
wcode=0; wait "$SERVE_PID" || wcode=$?
[ "$wcode" -eq 0 ]
SERVE_PID= STEADY_PID=

# Torture pass: the cmd/torture harness over 20 fixed seeds — each seed
# a deterministic disk fault schedule under the coordinator's journals
# (torn write / failed sync / ENOSPC, followed by a crash-restart from the
# fsync-accurate crash image) plus seeded network faults (drop, delay, duplicate, reset,
# truncation) on every worker and client transport. The harness itself
# asserts byte-identity against the fault-free single-process baseline
# per seed, and -require-all-classes fails the pass unless every one of
# the eight fault classes actually fired somewhere in the seed set (no
# silent zero-coverage schedules).
go run ./cmd/torture -first 1 -n 20 -require-all-classes

# Optional performance pass: BENCH=1 scripts/check.sh additionally runs
# the Go benchmarks: the serial-vs-parallel experiment grids, simulator
# throughput, the fast-forward engine A/B, the functional-memory fast
# path, and the multiprocessor's lockstep driver and miss path. End-to-end numbers and before/after comparisons are the
# repository benchmark's: go run ./benchmark -workload <w> -out a.jsonl,
# then -compare a.jsonl b.jsonl (benchmark/README.md).
if [ -n "${BENCH:-}" ]; then
    go test -run='^$' -bench='Table7|Table10|SimulatorThroughput|MPSimulatorThroughput' -benchtime=1x .
    go test -run='^$' -bench='BenchmarkStepFastForward|BenchmarkAdvanceCountedFetch' -benchtime=2s ./internal/core/
    go test -run='^$' -bench='BenchmarkMemAccess' -benchtime=1s ./internal/mem/
    go test -run='^$' -bench='BenchmarkAdvanceMP|BenchmarkStallMiss' -benchtime=5x ./internal/mp/
fi
