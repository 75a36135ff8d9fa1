#!/bin/sh
# Staged CI pipeline. Run from the repository root.
#
#   ./ci.sh              run every stage in order (default: all)
#   ./ci.sh <stage>...   run only the named stage(s)
#
# Stages:
#   build         release build of the whole workspace, all targets
#   test          full workspace test pass (TULKUN_WORKSPACE_TESTS=1
#                 marks the outer run so the facade's workspace guard
#                 does not recurse; a bare `cargo test` outside CI is
#                 covered by tests/workspace_guard.rs, which spawns the
#                 member-crate run itself)
#   lint          clippy, warnings are errors; plus the one-owner
#                 check: the intent/churn lifecycle (its journal kinds
#                 and the IntentStore mutators) is named nowhere under
#                 crates/sim or in core/verify.rs, so a copy of
#                 core/control.rs cannot grow back in a substrate; the
#                 predicate layer (LEC builder, boundary partition,
#                 backend selection) has no second home outside
#                 crates/predicate; and the event lifecycle is written
#                 once over the two fabrics (batch staging and fence
#                 delivery each occur exactly once under crates/sim/src,
#                 as do the verifier constructor and the device step in
#                 its non-test code; the crash-restart journal kind
#                 occurs once in the whole non-test tree, in
#                 core/control.rs; and the
#                 deleted second names of the engines and the retired
#                 roster option, fork, late build and shadow network
#                 stay deleted: every fabric hosts every topology
#                 device); and
#                 the FIB write path compiles rules in one place
#                 (`lecs_in` has exactly one caller outside
#                 crates/predicate, and the verifier never calls
#                 `match_pred` itself — what the work-count test in
#                 crates/predicate/tests/lecs.rs bounds is therefore
#                 what `handle_fib_batch` does); and the panic audit's
#                 ledger: the non-test unwrap/expect/panic!/unreachable!
#                 sites of each file on the daemon path, a count that
#                 may only fall; and crates/bench/src/bin holds exactly
#                 figures, check_figures and check_telemetry, with the
#                 deleted link-event mechanism, the batch fault-scene
#                 delivery, the node-table rebuild and the second
#                 benchmark harness named nowhere in the tree, nor the nine
#                 equivalence files tests/matrix.rs replaced named in
#                 ci.sh, tests/, README or DESIGN; and one latency
#                 instrument: the fixed-bucket tables, the sample
#                 reservoir and the hand-rolled span timer stay retired;
#                 and one way into the intent store: the scene-table
#                 forks, the destination-delivery option and the §7
#                 partitioner stay deleted; and one path from the
#                 intent store to a device: one change set, one fence
#                 builder, and verifiers built empty that host their
#                 nodes through a fence share (no init in a substrate);
#                 and quarantine, revival and crash restart are fence
#                 shares too: no wipe flag, reboot or delivery filter;
#                 and one way to change a substrate: apply_event, with
#                 run_to_quiescence the one drive verb (the typed
#                 per-event methods, the second outcome type, the
#                 runtime's burst and the unused window purge stay
#                 retired); and one way to share a LEC table across
#                 invariants, by hosting them on one engine (the
#                 cross-engine cache, the table import/export paths and
#                 the transport's topology re-route stay retired)
#   fmt           rustfmt check
#   equivalence   the house invariant — byte-equal Reports across
#                 substrates, backends, loss and churn — and its truth,
#                 as one release build running four test binaries:
#                   matrix               seeded networks, intents and
#                     scripts over the whole RuntimeEvent alphabet, fed
#                     in lockstep to Session, the fifo / event / lossy
#                     engines and the threaded runner (one backend,
#                     loss profile, telemetry mode and batching mode
#                     per case); after every op each Report must equal
#                     the merged per-intent fresh Session, the
#                     substrates one lifecycle, journal and fault
#                     accounting, and every verdict an explicit-state
#                     oracle that shares no code with the verifier;
#                     plus the paper's fixed scripts and the INet2
#                     locality tests; prints its coverage table
#                   backend_agreement    (crates/predicate) random-FIB
#                     LEC classification agrees across backends, wire
#                     bytes included
#                   lecs                 (crates/predicate) the LEC
#                     builder, incl. the work-count gate: a FIB burst
#                     compiles the rules it overlaps, not the table
#                   daemon_session       the line protocol against a
#                     direct replay; a multi-source session under
#                     Block / Shed / Shed+10% loss held to its exact
#                     admission counters and to a replay of what it
#                     admitted; hostile lines (no panic, an `err`
#                     changes nothing); the 20 000-round soak that
#                     holds the BDD memo within its bound (a debug
#                     build runs 2 000 rounds)
#                 any divergence, or any disagreement with the oracle,
#                 fails the stage
#   bench-smoke   runs every entry of the FIGURES table in crates/bench
#                 (`figures all`: the paper's Table 1, §9.2 and Figs.
#                 10-15 plus the ablations) on tiny topologies — each
#                 run must emit exactly the figure ids its entry lists —
#                 and validates every listed id with `check_figures
#                 --all` (structure only; no stage's verdict depends on
#                 how fast the host is — performance is gated by the
#                 pipeline that runs BENCHMARK.json on parent and
#                 change); diffs the bench_backends figure against the
#                 committed BENCH_backends.json (labels + equivalence
#                 verdicts must not drift) before refreshing the
#                 snapshot; then runs every shipped example, which
#                 assert their own verdicts
#   obs-smoke     runs `tulkun trace` / `tulkun metrics` on tiny INet2
#                 and validates the Chrome-trace JSON and Prometheus
#                 text with check_telemetry (structure only, no timing
#                 -- the CI box has 1 CPU; one TYPE line and one group
#                 of lines per family; the predicate-memory gauges
#                 tulkun_bdd_nodes / tulkun_bdd_memo_entries must be
#                 there, the memo within its bound, no histogram over
#                 32 `le` lines); the init-build, inject and handle
#                 histograms must be exported; `tulkun explain` must
#                 refuse an unallocated intent id; a scripted daemon
#                 session's `metrics` reply must carry the fence-plan,
#                 planner and refit histograms of its churn and a
#                 scene-table hit for its repeated link-down; a clean
#                 daemon session must refuse a link-down naming no link
#                 (a journaled churn_rejected, no epoch burnt), start on
#                 intervals, move to bdd
#                 (a journaled backend_swap) on an ACL batch with its
#                 epoch and its journal's intent/churn history as they
#                 were, and time
#                 its report's build and encode layers in a `metrics`
#                 reply check_telemetry accepts, and a second
#                 report on the unchanged network must reply the same
#                 bytes and render 0 sources; also
#                 asserts a run
#                 with telemetry disabled (--off) emits zero output
#   doc-check     README/DESIGN must document the core runtime types
#
# Every stage runs under a wall-clock cap (CI_STAGE_TIMEOUT seconds,
# default 1800): a convergence hang — a wedged device thread, a lost
# quiescence signal — must fail CI loudly instead of stalling the
# runner forever.
set -eu

STAGE_TIMEOUT="${CI_STAGE_TIMEOUT:-1800}"

# Runs stage `$1` under the wall-clock cap. The stage runs as a
# re-exec of this script (`__stage` dispatch below) in its own session
# via setsid, so on expiry the watcher can kill the stage's entire
# session — cargo AND the test children it spawned (even ones that made
# their own process groups) — not just the stage shell. `pkill -s`
# rather than `kill -- -pgid` because dash's kill builtin rejects
# negative pids. The watcher polls in short sleeps (never one long
# sleep) so it exits — and releases any pipe CI wraps around this
# script — promptly after the stage finishes.
run_with_timeout() {
    if command -v setsid >/dev/null 2>&1; then
        # setsid execs in place (the background job is not a group
        # leader here), so $cmd is also the new session's id.
        setsid sh "$0" __stage "$1" &
    else
        # No setsid: the session kill below degrades to a single kill.
        sh "$0" __stage "$1" &
    fi
    cmd=$!
    (
        elapsed=0
        while kill -0 "$cmd" 2>/dev/null; do
            if [ "$elapsed" -ge "$STAGE_TIMEOUT" ]; then
                echo "ci.sh: stage '$1' exceeded ${STAGE_TIMEOUT}s (convergence hang?)" >&2
                pkill -TERM -s "$cmd" 2>/dev/null || kill -TERM "$cmd" 2>/dev/null
                sleep 2
                pkill -KILL -s "$cmd" 2>/dev/null || kill -KILL "$cmd" 2>/dev/null || true
                exit 0
            fi
            sleep 5
            elapsed=$((elapsed + 5))
        done
    ) &
    watcher=$!
    rc=0
    wait "$cmd" || rc=$?
    wait "$watcher" 2>/dev/null || true
    return "$rc"
}

stage_build() {
    cargo build --release --workspace --all-targets
}

stage_test() {
    TULKUN_WORKSPACE_TESTS=1 cargo test -q --workspace
}

stage_lint() {
    cargo clippy --workspace --all-targets -- -D warnings
    if grep -rn 'replan_all_for_churn\|\.park(\|JournalKind::\(EpochFence\|TopologyChurn\|IntentParked\|IntentInstalled\|IntentRemoved\|IntentDegraded\|IntentReplanned\)' \
        crates/sim crates/core/src/verify.rs; then
        echo "lint: lifecycle logic outside crates/core/src/control.rs (see above)" >&2
        exit 1
    fi
    if grep -rn --include='*.rs' \
        'fn local_equivalence_classes\|struct \(IntervalAtoms\|AtomPartition\|AtomAction\)\|update_rate_hint' \
        crates src tests examples | grep -v '^crates/predicate/'; then
        echo "lint: predicate-layer logic outside crates/predicate (see above)" >&2
        exit 1
    fi
    for once in 'JournalKind::BatchApplied' 'fn fenced'; do
        n="$(grep -rn --include='*.rs' "$once" crates/sim/src | wc -l)"
        if [ "$n" -ne 1 ]; then
            grep -rn --include='*.rs' "$once" crates/sim/src >&2 || true
            echo "lint: '$once' occurs $n times under crates/sim/src, want 1 (one lifecycle, two fabrics)" >&2
            exit 1
        fi
    done
    # A crash restart is decided once, by ControlPlane::restart: its
    # journal kind is named exactly once in the whole non-test tree
    # (code above each file's test module; tests/ and benches/ are test
    # code), and that once is in core/control.rs.
    crash="$(find crates src examples -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
        | sort | while read -r f; do
            sed '/^#\[cfg(test)\]/q' "$f" | grep -n 'JournalKind::CrashRestart' | sed "s|^|$f:|"
        done)"
    n="$(printf '%s' "$crash" | grep -c . || true)"
    case "$n:$crash" in
        1:crates/core/src/control.rs:*) ;;
        *)
            printf '%s\n' "$crash" >&2
            echo "lint: 'JournalKind::CrashRestart' occurs $n times in non-test code, want 1, in crates/core/src/control.rs (one crash restart, every substrate)" >&2
            exit 1
            ;;
    esac
    # One way to change a substrate: Substrate::apply_event over the
    # whole RuntimeEvent alphabet, and one verb that drives,
    # run_to_quiescence. The typed per-event methods, the second
    # outcome type, the runtime's other drive verbs and the unused
    # window purge stay retired.
    if grep -rnE '(\.|fn )(apply_topology''_event|install''_intent|remove''_intent|crash''_restart|apply_rule''_update|run''_staged|wait''_quiescent)\(' \
        crates src tests examples \
        || grep -nw 'fn bu''rst' crates/sim/src/runtime.rs \
        || grep -rnw 'Run''Outcome\|purge_epochs''_below' crates src tests examples ci.sh; then
        echo "lint: a typed per-event method, second drive verb or retired outcome is back (see above); a substrate changes only through apply_event" >&2
        exit 1
    fi
    # Verifiers are built one way, one at a time: the concurrent-init
    # knob, its worker pool's figure, the LEC cache's lock shards and
    # the second counting-profile type stay retired.
    if grep -rnw 'parallel''_init\|LEC_CACHE''_SHARDS\|ablation_parallel''_init\|Intent''Profile' \
        crates src tests examples; then
        echo "lint: a concurrent verifier build, cache lock shard or second counting profile is back (see above); verifiers are built in device order through Recipe::build" >&2
        exit 1
    fi
    # Telemetry keeps one registry and one tracer, each one store
    # behind one lock: the lock shards and the device argument that
    # picked one stay retired.
    if grep -rnw 'SHA''RDS\|SHA''RD' crates src tests examples \
        || grep -rnF 'fn sha''rd(' crates src tests examples; then
        echo "lint: a telemetry lock shard is back (see above); the metrics registry and the tracer each keep one store behind one lock" >&2
        exit 1
    fi
    # A device shares its LEC table across invariants one way, by
    # hosting them on its one verifier: the cross-engine cache, its
    # constructors, the table import/export paths and the transport's
    # topology re-route stay retired.
    if grep -rnw 'Lec''Cache\|Lec''Table\|with''_cache\|new''_cached\|maybe''_lecs\|export''_lecs\|new_with''_lecs\|set''_topology' \
        crates src tests examples; then
        echo "lint: a cross-engine LEC cache, table import/export or transport topology is back (see above); install invariants as intents on one engine" >&2
        exit 1
    fi
    # One constructor and one device step serve both fabrics: counted
    # above each file's test module (the first column-0 `#[cfg(test)]`).
    for once in 'DeviceVerifier::builder(' '.handle(&'; do
        n="$(for f in crates/sim/src/*.rs; do sed '/^#\[cfg(test)\]/q' "$f"; done \
            | grep -cF "$once" || true)"
        if [ "$n" -ne 1 ]; then
            echo "lint: '$once' occurs $n times in non-test code under crates/sim/src, want 1 (one lifecycle, two fabrics)" >&2
            exit 1
        fi
    done
    # The verifier is the one home of the LEC delta; its test module
    # sits at the end of the file, so only lines above the first
    # `#[cfg(test)]` count.
    verifier=crates/core/src/dvm/verifier.rs
    if grep -rl --include='*.rs' 'lecs_in(' crates src tests examples \
        | grep -v "^crates/predicate/\|^$verifier\$"; then
        echo "lint: lecs_in called outside crates/predicate and the verifier (see above)" >&2
        exit 1
    fi
    n="$(sed '/#\[cfg(test)\]/q' "$verifier" | grep -c 'lecs_in(' || true)"
    if [ "$n" -ne 1 ]; then
        echo "lint: the verifier calls lecs_in $n times outside its tests, want 1 (the LEC delta)" >&2
        exit 1
    fi
    if sed '/#\[cfg(test)\]/q' "$verifier" | grep -n 'match_pred('; then
        echo "lint: the verifier compiles a rule itself (see above); the FIB write path goes through lecs_in" >&2
        exit 1
    fi
    if grep -rnw --include='*.rs' \
        'DvmSim\|FaultyDvmSim\|SimConfig\|SimResult\|DistributedRun\|InstantClock' \
        crates src tests examples; then
        echo "lint: a deleted engine alias or clock is back (see above)" >&2
        exit 1
    fi
    # One benchmark harness (benchmark/), one figures binary, one way a
    # link fails and one way a fault scene is applied (the fence path):
    # the retired names stay retired. The patterns are split so this
    # file does not match itself.
    bins="$(ls crates/bench/src/bin | tr '\n' ' ')"
    case "$bins" in
        "check_figures.rs check_telemetry.rs figures.rs "|"check_figures.rs check_telemetry.rs figures ") ;;
        *)
            echo "lint: crates/bench/src/bin holds '$bins', want figures, check_figures.rs, check_telemetry.rs" >&2
            exit 1
            ;;
    esac
    if grep -rnw 'handle_link''_event\|down''_neighbors\|apply_link''_event\|bench''_daemon\|PERF_GATE''_TOLERANCE\|TULKUN_PERF''_GATE_FORCE' \
        crates src tests examples ci.sh; then
        echo "lint: a deleted link-event or second-benchmark name is back (see above)" >&2
        exit 1
    fi
    if grep -rn 'apply''_scene\|Scene''Applied\|scene''_applied\|plan_fault''_tolerant\|scene''_tasks' \
        crates src tests examples ci.sh; then
        echo "lint: the batch fault-scene delivery is back (see above); a scene is LinkDown/LinkUp events" >&2
        exit 1
    fi
    # One way the node table changes: the in-place re-intern of the
    # slices that changed. The rebuild's snapshot names stay retired.
    if grep -rnw 'Prev''Table\|old''_tasks' crates src tests examples ci.sh; then
        echo "lint: a table rebuild is back (see above); a fence re-interns the slices that changed in place" >&2
        exit 1
    fi
    # One roster: every fabric hosts every topology device, built at
    # construction, and a verifier is its device's only copy of the FIB.
    # The fixed-roster fork, the option that papered over it, the late
    # build and the shadow network it read stay retired.
    if grep -rnw 'all_devices\|fixed_roster\|taskable\|note_batch\|build_late' crates src tests examples; then
        echo "lint: a roster option, fork or late build is back (see above); every fabric hosts every topology device" >&2
        exit 1
    fi
    # One way into the intent store: every plan is the re-planner's,
    # through its key's scene table, on the session's one base topology
    # and invariant. One destination semantics: §2.2.2's axiomatic
    # base. §7 partitioning is deleted. Their retired names stay
    # retired.
    if grep -rnw 'forget''_scenes\|rekey''_base\|remember''_install\|Dest''Mode\|Check''Delivery\|plan''_hierarchical\|Partition''ing' \
        crates src tests examples ci.sh; then
        echo "lint: a retired planning fork, destination mode or partitioner is back (see above)" >&2
        exit 1
    fi
    # One Proposition 2 check (fault::Proposition2) and one suffix-merging
    # builder (dpvnet::merge_suffixes): the fault-tolerant DPVNet's
    # private trie, its copy of the scene check and the live path's old
    # check type stay retired, as do the deleted spec/bulk.rs helpers.
    if grep -rnw 'T''Node\|F''Node\|touches''_used\|dist''_unchanged\|Cut''Check\|from''_parts\|Device''Set\|owned''_space\|all_pair''_reachability\|all_pair_shortest''_availability' \
        crates src tests examples ci.sh; then
        echo "lint: a second scene check, union builder or bulk helper is back (see above)" >&2
        exit 1
    fi
    # One path from the intent store to a device: one change set
    # (IntentDelta), one fence builder (ControlPlane::shares), and
    # construction as a fence share (a verifier is built empty and hosts
    # its nodes through apply_fence). The churn-only group type, its
    # conversions and the builder's task list stay retired, and no
    # substrate runs a verifier's init.
    if grep -rnw 'ReplanTask''Group\|tasks''_of\|intent''_fence\|Decision::''counted' \
        crates src tests examples ci.sh; then
        echo "lint: a second change set or fence builder is back (see above); a delta reaches a device through ControlPlane::shares" >&2
        exit 1
    fi
    if grep -rnF '.tasks''(' crates src tests examples; then
        echo "lint: the verifier builder takes tasks again (see above); a new verifier hosts its nodes through its fence share" >&2
        exit 1
    fi
    if for f in crates/sim/src/*.rs crates/core/src/verify.rs; do
        sed '/^#\[cfg(test)\]/q' "$f" | grep -nF '.init(' | sed "s|^|$f:|"
    done | grep .; then
        echo "lint: a substrate initialises a verifier (see above); construction is a fence share" >&2
        exit 1
    fi
    # A verifier hosts exactly its device's share of
    # ControlPlane::hosted(), and only apply_fence changes that: a down
    # device's share removes its nodes, a revived one's creates them,
    # and a crash restart is a share that does both. The wipe flag, the
    # second way to reset a node, and the quarantine filters on delivery
    # stay retired.
    if grep -rnE '\.re''boot\(|fn re''boot|is_quar''antined|\.wi''pe\b|\bwi''pe:' \
        crates src tests examples; then
        echo "lint: a second quarantine or restart mechanism is back (see above); a verifier changes what it hosts only through apply_fence" >&2
        exit 1
    fi
    # One latency instrument: the log-linear Histogram. The fixed-bucket
    # tables, the sample reservoir and the raw span recorder a timing
    # block was hand-rolled from stay retired; a span with a duration
    # is a timed Layer (`timed`, or `start` + `finish`).
    if grep -rnw 'Reser''voir\|RESERVOIR''_CAP\|NS_''BOUNDS\|Histogram''Spec\|msg_ns''_samples\|max_msg''_ns\|host''_tick\|span''_aux' \
        crates src tests examples ci.sh README.md DESIGN.md EXPERIMENTS.md; then
        echo "lint: a retired latency instrument is back (see above); time a layer with Telemetry::timed" >&2
        exit 1
    fi
    # One equivalence harness (tests/matrix.rs): the nine files it
    # replaced stay retired.
    if grep -rn 'fault''_matrix\|churn''_matrix\|intent''_matrix\|backend''_equivalence\|batch''_equivalence\|substrate''_equivalence\|telemetry''_equivalence\|oracle''_counting' \
        ci.sh tests README.md DESIGN.md; then
        echo "lint: a retired equivalence file is named again (see above); it is tests/matrix.rs now" >&2
        exit 1
    fi
    # Panic audit (ROADMAP: a daemon path that never panics): sites
    # that can panic above each audited file's test module (the first
    # column-0 `#[cfg(test)]`). A file joins at the count its audit
    # left; the number may only fall, and a site a change really needs
    # is argued for here, next to the number it raises. The two sites
    # of runtime.rs and of verify.rs are argued for where they stand:
    # a test-only arm and constructor contracts no daemon input reaches.
    for audited in crates/core/src/intent.rs:0 crates/core/src/control.rs:0 \
                   crates/sim/src/faults.rs:0 crates/sim/src/service.rs:0 \
                   src/daemon.rs:0 crates/core/src/dvm/reliable.rs:0 \
                   crates/core/src/churn.rs:0 crates/core/src/explain.rs:0 \
                   crates/sim/src/runtime.rs:2 crates/core/src/dvm/verifier.rs:0 \
                   crates/core/src/verify.rs:2; do
        file="${audited%:*}"
        budget="${audited#*:}"
        sites="$(sed '/^#\[cfg(test)\]/q' "$file" \
            | grep -n '\.unwrap()\|\.expect(\|panic!\|unreachable!' || true)"
        n="$(printf '%s' "$sites" | grep -c . || true)"
        if [ "$n" -gt "$budget" ]; then
            printf '%s\n' "$sites" >&2
            echo "lint: $file has $n non-test unwrap/expect/panic!/unreachable! sites, budget $budget (see above)" >&2
            exit 1
        fi
    done
}

stage_fmt() {
    cargo fmt --check
}

stage_equivalence() {
    TULKUN_WORKSPACE_TESTS=1 cargo test --release -q -p tulkun --test matrix -- --nocapture
    TULKUN_WORKSPACE_TESTS=1 cargo test --release -q -p tulkun -p tulkun-predicate \
        --test backend_agreement --test lecs --test daemon_session
}

stage_bench_smoke() {
    # One table (FIGURES in crates/bench/src/lib.rs) behind both steps:
    # `figures` fails a run whose emitted ids differ from its entry's,
    # `check_figures --all` re-parses every listed id from disk.
    cargo run --release -p tulkun-bench --bin figures -- all \
        --scale tiny --datasets INet2,AT1-2 --updates 48 --scenes 3
    cargo run --release -p tulkun-bench --bin check_figures -- --all
    # Drift check against the committed snapshot: labels and the
    # backend-equivalence verdicts must be unchanged. Message/byte
    # counts and timings are run-dependent on the event sim, so only
    # these columns are exact.
    cargo run --release -p tulkun-bench --bin check_figures -- \
        --diff BENCH_backends.json \
        "${CARGO_TARGET_DIR:-target}/figures/bench_backends.json" \
        --exact "dataset,workload,backend,same report"
    cp "${CARGO_TARGET_DIR:-target}/figures/bench_backends.json" BENCH_backends.json
    echo "bench-smoke: refreshed BENCH_backends.json"
    # What ships is executed: every example runs to completion (they
    # assert their own verdicts).
    for example in examples/*.rs; do
        cargo run --release -p tulkun --example "$(basename "$example" .rs)"
    done
}

stage_obs_smoke() {
    obs_dir="target/obs-smoke"
    mkdir -p "$obs_dir"
    cargo run --release -p tulkun --bin tulkun -- \
        trace --name INet2 --scale tiny --out "$obs_dir/trace.json" \
        --journal-out "$obs_dir/journal.json"
    cargo run --release -p tulkun --bin tulkun -- \
        metrics --name INet2 --scale tiny --out "$obs_dir/metrics.prom"
    # The flight-recorder dump must be schema-valid tulkun-journal-v1.
    cargo run --release -p tulkun-bench --bin check_telemetry -- \
        --trace "$obs_dir/trace.json" --metrics "$obs_dir/metrics.prom" \
        --journal "$obs_dir/journal.json"
    # Every timed layer the run exercises exports its histogram: the
    # verifier builds and the injected FIB batches among them.
    for hist in tulkun_init_build_ns tulkun_inject_ns tulkun_dvm_handle_ns; do
        grep -q "^${hist}_count [1-9]" "$obs_dir/metrics.prom" || {
            echo "obs-smoke: tulkun metrics exports no $hist histogram" >&2
            exit 1
        }
    done
    # The disabled path must be a no-op: zero spans, zero metrics, and
    # literally zero journal bytes.
    cargo run --release -p tulkun --bin tulkun -- \
        trace --name INet2 --scale tiny --off --out "$obs_dir/trace_off.json" \
        --journal-out "$obs_dir/journal_off.json"
    cargo run --release -p tulkun --bin tulkun -- \
        metrics --name INet2 --scale tiny --off --out "$obs_dir/metrics_off.prom"
    cargo run --release -p tulkun-bench --bin check_telemetry -- \
        --expect-empty \
        --trace "$obs_dir/trace_off.json" --metrics "$obs_dir/metrics_off.prom" \
        --journal "$obs_dir/journal_off.json"
    # Explain must be deterministic: two runs of the seeded fault scene
    # render byte-identical tulkun-explain-v1 JSON.
    cargo run --release -p tulkun --bin tulkun -- \
        explain --name INet2 --scale tiny --seed 3 --json \
        > "$obs_dir/explain.json" 2>/dev/null
    cargo run --release -p tulkun --bin tulkun -- \
        explain --name INet2 --scale tiny --seed 3 --json \
        > "$obs_dir/explain_rerun.json" 2>/dev/null
    cmp "$obs_dir/explain.json" "$obs_dir/explain_rerun.json"
    cargo run --release -p tulkun-bench --bin check_telemetry -- \
        --explain "$obs_dir/explain.json"
    # The CLI asks the runtime the daemon asks: an intent id no install
    # allocated is refused, not explained as a healthy `fresh`.
    if cargo run --release -p tulkun --bin tulkun -- \
        explain --name INet2 --scale tiny --seed 3 --subject intent:999 \
        > "$obs_dir/explain_unknown.out" 2>&1; then
        echo "obs-smoke: tulkun explain accepted an unallocated intent id" >&2
        exit 1
    fi
    grep -q 'unknown intent 999' "$obs_dir/explain_unknown.out" || {
        echo "obs-smoke: tulkun explain did not name the unknown intent" >&2
        exit 1
    }
    # Explain from a live daemon: a scripted faulty session with an
    # impossible SLO budget must answer `events`/`explain` over the
    # wire and auto-dump its journal on the breach.
    rm -f "$obs_dir/daemon_journal.json"
    printf '%s\n' \
        "config slo 1 1 1 1" \
        "churn ci link-down SEAT LOSA" \
        "drain" \
        "events ci" \
        "explain ci SEAT" \
        "churn ci link-up SEAT LOSA" \
        "drain" \
        "churn ci link-down SEAT LOSA" \
        "drain" \
        "metrics" \
        "quit" \
    | cargo run --release -p tulkun --bin tulkun -- \
        daemon --name INet2 --scale tiny --faults 7 \
        --journal-dump "$obs_dir/daemon_journal.json" \
        > "$obs_dir/daemon.out"
    grep -q '"kind":"topology_churn"' "$obs_dir/daemon.out" || {
        echo "obs-smoke: daemon events reply has no topology_churn entry" >&2
        exit 1
    }
    # The churn's control-plane decision is a timed layer too.
    grep -q '^tulkun_fence_plan_ns_count [1-9]' "$obs_dir/daemon.out" || {
        echo "obs-smoke: daemon metrics reply has no tulkun_fence_plan_ns histogram" >&2
        exit 1
    }
    # The planner runs and re-interns inside it are timed layers, and the
    # second SEAT–LOSA link-down is answered by a scene table.
    for hist in tulkun_planner_ns tulkun_refit_ns; do
        grep -q "^${hist}_count [1-9]" "$obs_dir/daemon.out" || {
            echo "obs-smoke: daemon metrics reply has no $hist histogram" >&2
            exit 1
        }
    done
    grep -q '^tulkun_plan_table_hits_total [1-9]' "$obs_dir/daemon.out" || {
        echo "obs-smoke: the repeated link-down was not a scene-table hit" >&2
        exit 1
    }
    sed -n 's/^ok \({"schema":"tulkun-explain-v1".*\)$/\1/p' \
        "$obs_dir/daemon.out" > "$obs_dir/daemon_explain.json"
    cargo run --release -p tulkun-bench --bin check_telemetry -- \
        --explain "$obs_dir/daemon_explain.json"
    if [ ! -s "$obs_dir/daemon_journal.json" ]; then
        echo "obs-smoke: daemon did not auto-dump its journal on the SLO breach" >&2
        exit 1
    fi
    cargo run --release -p tulkun-bench --bin check_telemetry -- \
        --journal "$obs_dir/daemon_journal.json"
    # The backend follows the workload: a clean INet2 daemon starts on
    # intervals, and a batch with a port-matching ACL moves it to bdd,
    # journaled as a backend_swap. The move re-hosts the verifiers and
    # nothing else: after an install, a removal and a link-down, the
    # epoch stays where it was and the journal holds each of those
    # once. A link-down between two devices INet2 does not link (SEAT,
    # NEWY) is refused at drain: a `churn_rejected` entry, no epoch
    # burnt, no `topology_churn`. Its `report` is two timed layers, and a second `report` on
    # an unchanged network re-renders no source and replies the same
    # bytes.
    printf '%s\n' \
        'intent add ci {"name":"ci","spec":"(dstIP=10.0.0.0/24, [LOSA], (subset, /. * SEAT/ loop_free (<= shortest+2)))"}' \
        "drain" \
        "intent remove ci 1" \
        "drain" \
        "churn ci link-down SEAT LOSA" \
        "drain" \
        "status" \
        "churn ci link-down SEAT NEWY" \
        "drain" \
        'batch ci [{"Insert":{"device":1,"rule":{"priority":100,"matches":{"dst":"10.0.0.0/24","dst_port":[22,22],"proto":null},"action":"Drop"}}}]' \
        "drain" \
        "status" \
        "events ci" \
        "report" \
        "metrics" \
        "report" \
        "metrics" \
        "quit" \
    | cargo run --release -p tulkun --bin tulkun -- \
        daemon --name INet2 --scale tiny > "$obs_dir/daemon_clean.out"
    statuses="$(grep '^ok {"admitted"' "$obs_dir/daemon_clean.out")"
    printf '%s\n' "$statuses" | sed -n 1p | grep -q '"backend":"intervals"' || {
        echo "obs-smoke: a clean INet2 daemon does not start on intervals" >&2
        exit 1
    }
    printf '%s\n' "$statuses" | sed -n 2p | grep -q '"backend":"bdd"' || {
        echo "obs-smoke: an ACL batch did not move the daemon to bdd" >&2
        exit 1
    }
    grep -q '"kind":"backend_swap"' "$obs_dir/daemon_clean.out" || {
        echo "obs-smoke: daemon events reply has no backend_swap entry" >&2
        exit 1
    }
    epochs="$(printf '%s\n' "$statuses" | grep -o '"epoch":[0-9]*' | sort -u)"
    [ "$(printf '%s\n' "$epochs" | wc -l)" -eq 1 ] || {
        echo "obs-smoke: the refused link-down or the move to bdd changed the epoch ($(echo $epochs))" >&2
        exit 1
    }
    grep -q '"kind":"churn_rejected".*names no link' "$obs_dir/daemon_clean.out" || {
        echo "obs-smoke: events ci has no churn_rejected entry for the SEAT-NEWY link-down" >&2
        exit 1
    }
    for kind in intent_installed topology_churn; do
        n="$(grep -c "\"kind\":\"$kind\"" "$obs_dir/daemon_clean.out" || true)"
        [ "$n" -eq 1 ] || {
            echo "obs-smoke: events ci holds $n $kind entries, not one" >&2
            exit 1
        }
    done
    for hist in tulkun_report_build_ns tulkun_report_encode_ns; do
        grep -q "^${hist}_count [1-9]" "$obs_dir/daemon_clean.out" || {
            echo "obs-smoke: daemon metrics reply has no $hist histogram" >&2
            exit 1
        }
    done
    # The first `metrics` reply (an `ok <lines>` header whose next line
    # is a TYPE line, then the exposition text) passes the same checks
    # as `tulkun metrics`: one TYPE line and one group of lines per
    # family included.
    awk '/^ok [0-9]+$/ && !n { hdr = $2; next }
        hdr && !n { if (/^# TYPE /) n = hdr; hdr = 0 }
        n > 0 { print; if (!--n) exit }' \
        "$obs_dir/daemon_clean.out" > "$obs_dir/daemon_clean.prom"
    cargo run --release -p tulkun-bench --bin check_telemetry -- \
        --metrics "$obs_dir/daemon_clean.prom"
    reports="$(grep '^ok \[' "$obs_dir/daemon_clean.out")"
    [ "$(printf '%s\n' "$reports" | wc -l)" -eq 2 ] &&
        [ "$(printf '%s\n' "$reports" | sort -u | wc -l)" -eq 1 ] || {
        echo "obs-smoke: two back-to-back reports differ" >&2
        exit 1
    }
    rendered="$(sed -n 's/^tulkun_report_sources_rendered_total \([0-9]*\)$/\1/p' \
        "$obs_dir/daemon_clean.out")"
    first="$(printf '%s\n' "$rendered" | sed -n 1p)"
    second="$(printf '%s\n' "$rendered" | sed -n 2p)"
    [ "${first:-0}" -gt 0 ] && [ "$second" = "$first" ] || {
        echo "obs-smoke: the second report rendered sources ($first then $second in total)" >&2
        exit 1
    }
}

stage_doc_check() {
    for name in Engine ThreadedEngine FaultyTransport RuntimeStats \
                TelemetryConfig MetricsRegistry \
                DaemonSession SloTracker AdmissionPolicy \
                IntentStore RuntimeEvent ControlPlane \
                JournalKind explain; do
        for doc in README.md DESIGN.md; do
            if ! grep -q "$name" "$doc"; then
                echo "doc-check: $doc does not mention $name" >&2
                exit 1
            fi
        done
    done
    echo "doc-check: ok"
}

run_stage() {
    echo "== ci.sh: $1 =="
    case "$1" in
        build|test|lint|fmt|equivalence|bench-smoke|obs-smoke|doc-check)
            run_with_timeout "$1"
            ;;
        all)
            for s in build test lint fmt equivalence \
                     bench-smoke obs-smoke doc-check; do
                run_stage "$s"
            done
            ;;
        *)
            echo "ci.sh: unknown stage '$1'" >&2
            echo "stages: build test lint fmt equivalence bench-smoke obs-smoke doc-check all" >&2
            exit 2
            ;;
    esac
}

# Hidden dispatch used by run_with_timeout: runs one stage function in
# the foreground of a re-exec'd (and setsid'd) copy of this script.
if [ "${1:-}" = "__stage" ]; then
    fn="stage_$(printf '%s' "$2" | tr - _)"
    "$fn"
    exit "$?"
fi

if [ "$#" -eq 0 ]; then
    run_stage all
else
    for s in "$@"; do
        run_stage "$s"
    done
fi
