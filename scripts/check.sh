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
    --include='*.go' --exclude='*_test.go' internal/service cmd/expserve cmd/expworker; then
    echo "check.sh: a scheduler names a per-grid symbol; drive the grid through experiments.Grid" >&2
    exit 1
fi

# One command runs every grid: cmd/experiments and expserve submit
# resolve -quick/-only/-j and the subset flags through
# experiments.BindGridFlags. A command that builds a grid config by hand
# is a second copy of that resolution.
if grep -rnE 'DefaultUniConfig|QuickUniConfig|DefaultMPConfig|QuickMPConfig' \
    --include='*.go' --exclude='*_test.go' cmd; then
    echo "check.sh: a command builds a grid config by hand; resolve it with experiments.BindGridFlags" >&2
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

# One splitmix64: the step and its finalizer are seeded.Stream and
# seeded.Mix, and every seeded consumer (chaos jitter, fault plans, the
# fuzzer's generator, per-cell seeds, retry jitter) draws from them. The
# finalizer's multiplier anywhere else is a second copy.
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

# One FNV-1a: internal/snapshot owns the constants, StateHash (bytes) and
# Fold (64-bit words); memory, architectural-state, machine and fuzz
# hashes are Folds. The prime anywhere else is a second copy.
if grep -rn '1099511628211' --include='*.go' --exclude='*_test.go' . |
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
# loopback HTTP and a worker), which otherwise has no default-on gate
# here: SERVICE=1 below is optional.
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
# and -json output to be byte-identical to the uninterrupted run.
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

# Checkpoint pass (four quick sweep runs of about half a second each): a
# forked sweep run (the default) must be byte-identical to
# -no-checkpoint, both in the tables and the -json dump; then a
# persistent -checkpoint-dir is written, every checkpoint file in it is
# made unusable in place, and the next run must notice, re-simulate the
# warm-up, still produce identical output, and leave the directory
# holding the files it held before.
"$RES_DIR/experiments" -quick -only sweeps -j 2 -no-checkpoint \
    -json "$RES_DIR/scratch.json" > "$RES_DIR/scratch.txt"
"$RES_DIR/experiments" -quick -only sweeps -j 2 \
    -json "$RES_DIR/forked.json" > "$RES_DIR/forked.txt"
diff "$RES_DIR/scratch.txt" "$RES_DIR/forked.txt"
diff "$RES_DIR/scratch.json" "$RES_DIR/forked.json"

"$RES_DIR/experiments" -quick -only sweeps -j 2 \
    -checkpoint-dir "$RES_DIR/ckpts" \
    -json "$RES_DIR/dir.json" > "$RES_DIR/dir.txt"
diff "$RES_DIR/scratch.txt" "$RES_DIR/dir.txt"
ls "$RES_DIR/ckpts"/*.ckpt >/dev/null # warm-up prefixes were persisted
cp -r "$RES_DIR/ckpts" "$RES_DIR/ckpts.orig"
poisoned=
for f in "$RES_DIR/ckpts"/*.ckpt; do
    if [ -z "$poisoned" ]; then
        # One file becomes a sound container around a payload that is not
        # a machine: magic, codec version 1, kind, the file's own key as
        # the fingerprint, length, 13 bytes, their FNV-1a. It opens; the
        # first fork that reads it must reject it, and the group's warm-up
        # is then simulated once and the file replaced.
        poisoned=$(basename "$f" .ckpt) # 24 hex digits (\030)
        printf 'RPSN\001\000\000\000\013\000\000\000workstation\030\000\000\000%s\015\000\000\000not a machine\024\313\065\302\377\274\107\217' \
            "$poisoned" > "$f"
        continue
    fi
    # The rest get a byte flipped mid-file: the container's checksum must
    # reject it (ErrCorrupt) when the file is opened.
    sz=$(wc -c < "$f")
    printf '\377' | dd of="$f" bs=1 seek=$((sz / 2)) conv=notrunc 2>/dev/null
done
"$RES_DIR/experiments" -quick -only sweeps -j 2 \
    -checkpoint-dir "$RES_DIR/ckpts" \
    -json "$RES_DIR/corrupt.json" > "$RES_DIR/corrupt.txt"
diff "$RES_DIR/scratch.txt" "$RES_DIR/corrupt.txt"
diff "$RES_DIR/scratch.json" "$RES_DIR/corrupt.json"
diff -r "$RES_DIR/ckpts.orig" "$RES_DIR/ckpts" # healed, byte for byte

# Optional differential-fuzz pass: FUZZ=1 scripts/check.sh runs the
# fixed-seed cross-scheme interleaving sweep (>=500 cells; exits 1 on any
# divergence), requires the report to be byte-identical at -j 8 and -j 1,
# and replays the checked-in reproducer (a deliberately broken TAS),
# which must still fail with the documented divergence exit code 1.
# It ends with ten seconds of FuzzRestore: mutated checkpoint payloads
# fed to every layer's RestoreState must fail typed, never panic or hang.
if [ -n "${FUZZ:-}" ]; then
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
    # -fuzzminimizetime 1x: the fabric seed is 50 KB, and by default each
    # input that finds new coverage is minimized for up to a minute.
    go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 10s -fuzzminimizetime 1x ./internal/snapshot
fi

# Optional distributed-service pass: SERVICE=1 scripts/check.sh runs the
# same quick table7 grid under the expserve coordinator with two chaos
# events — one worker killed by an injected fault on its first cell
# (documented exit 7) and the coordinator kill -9'd and restarted once on
# the same state dir and address — then requires the service's tables and
# -json output to be byte-identical to the single-process run above.
# The order is what makes both events land whatever the machine's speed
# (the grid takes a fraction of a second now that dispatch is
# event-driven): the doomed worker starts alone, so the first cell is
# its; its lease then pins the job open for a lease TTL, and the
# coordinator is killed inside that window, with the rest of the grid
# journaled by the survivor.
if [ -n "${SERVICE:-}" ]; then
    SVC_DIR="$(mktemp -d)"
    trap 'rm -rf "$OBS_DIR" "$RES_DIR" "$SVC_DIR"' EXIT
    go build -o "$SVC_DIR/expserve" ./cmd/expserve
    go build -o "$SVC_DIR/expworker" ./cmd/expworker

    # Coordinator: port 0 picks a free port, -addr-file publishes it.
    "$SVC_DIR/expserve" serve -dir "$SVC_DIR/state" -addr 127.0.0.1:0 \
        -addr-file "$SVC_DIR/addr" -lease-ttl 3s 2> "$SVC_DIR/serve1.log" &
    SERVE_PID=$!
    for _ in $(seq 1 100); do [ -s "$SVC_DIR/addr" ] && break; sleep 0.1; done
    ADDR="http://$(cat "$SVC_DIR/addr")"

    JOB=$("$SVC_DIR/expserve" submit -coordinator "$ADDR" -quick -only table7 -j 2)

    # One worker dies abruptly on its first cell: documented exit 7. It
    # releases nothing (an injected death is a kill -9), so its lease
    # must expire before that cell can redispatch.
    wcode=0
    "$SVC_DIR/expworker" -coordinator "$ADDR" -name doomed -poll 100ms \
        -fault die-mid-cell@1 2> "$SVC_DIR/doomed.log" || wcode=$?
    [ "$wcode" -eq 7 ]

    # The survivor does the real work.
    "$SVC_DIR/expworker" -coordinator "$ADDR" -name steady -slots 2 -poll 100ms \
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
fi

# Optional torture pass: TORTURE=1 scripts/check.sh runs the cmd/torture
# harness over 20 fixed seeds — each seed a deterministic disk fault
# schedule under the coordinator's journals (torn write / failed sync /
# ENOSPC, followed by a crash-restart from the fsync-accurate crash
# image) plus seeded network faults (drop, delay, duplicate, reset,
# truncation) on every worker and client transport. The harness itself
# asserts byte-identity against the fault-free single-process baseline
# per seed, and -require-all-classes fails the pass unless every one of
# the eight fault classes actually fired somewhere in the seed set (no
# silent zero-coverage schedules).
if [ -n "${TORTURE:-}" ]; then
    go run ./cmd/torture -first 1 -n 20 -require-all-classes
fi

# Optional performance pass: BENCH=1 scripts/check.sh additionally runs
# the Go benchmarks: the serial-vs-parallel experiment grids, simulator
# throughput, the fast-forward engine A/B, and the functional-memory fast
# path. End-to-end numbers and before/after comparisons are the
# repository benchmark's: go run ./benchmark -workload <w> -out a.jsonl,
# then -compare a.jsonl b.jsonl (benchmark/README.md).
if [ -n "${BENCH:-}" ]; then
    go test -run='^$' -bench='Table7|Table10|SimulatorThroughput|MPSimulatorThroughput' -benchtime=1x .
    go test -run='^$' -bench='BenchmarkStepFastForward|BenchmarkAdvanceCountedFetch' -benchtime=2s ./internal/core/
    go test -run='^$' -bench='BenchmarkMemAccess' -benchtime=1s ./internal/mem/
fi
