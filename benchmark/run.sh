#!/usr/bin/env bash
# The one command of BENCHMARK.json. Run it from the root of a checkout.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run: builds the nested crate offline, runs it, and prints the
#       result as the last line of stdout (what the driver calls)
#   benchmark/run.sh --set [--seed N] [--runs R] [--seconds S]
#       a full set: R timed runs and one traced run per workload, each its
#       own process, written with a host block to benchmark/results/
#   benchmark/run.sh compare <a.json> <b.json>
#       the two sets' end-to-end metrics against the bounds of BENCHMARK.json
#   benchmark/run.sh --selftest
#       the crate's tests, clippy -D warnings, fmt --check, compare self-test
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
manifest="$here/Cargo.toml"
# The driver points CARGO_TARGET_DIR into the checkout; on its own the
# crate builds into its own (git-ignored) target directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
bin="$CARGO_TARGET_DIR/release/benchmark"
workloads=(fib-burst trickle-read plan-churn plan-churn-lossy)

build() {
    # Fails, before anything is printed, where the repository is absent.
    cargo build --release --offline --quiet --manifest-path "$manifest" >&2
}

case "${1:-}" in
--selftest)
    cargo test --release --offline --quiet --manifest-path "$manifest"
    cargo clippy --release --offline --quiet --all-targets --manifest-path "$manifest" -- -D warnings
    cargo fmt --check --manifest-path "$manifest"
    build
    "$bin" compare --selftest --manifest "$here/../BENCHMARK.json"
    ;;
compare)
    build
    shift
    "$bin" compare "$@" --manifest "$here/../BENCHMARK.json"
    ;;
--set)
    shift
    seed=7 runs=1 seconds=10
    while [ $# -gt 0 ]; do
        case "$1" in
        --seed) seed="$2" ;;
        --runs) runs="$2" ;;
        --seconds) seconds="$2" ;;
        *) echo "run.sh --set: unknown option $1" >&2; exit 2 ;;
        esac
        shift 2
    done
    build
    mkdir -p "$here/results"
    out="$here/results/set-$(date -u +%Y%m%dT%H%M%SZ)-seed$seed.json"
    commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
    cpu="$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -1)"
    {
        printf '{"host": {"nproc": %s, "cpu": "%s", "rustc": "%s", "commit": "%s"},\n "runs": [\n' \
            "$(nproc)" "$cpu" "$(rustc -V)" "$commit"
        sep=""
        for w in "${workloads[@]}"; do
            for ((r = 0; r <= runs; r++)); do
                trace=$((r == runs)) # the traced run comes last
                echo "== $w seed $seed trace $trace" >&2
                "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
                    --trace-dir "$here/results" >"$out.run"
                sed '$d' "$out.run" >&2
                printf '%s  {"workload": "%s", "seed": %s, "trace": %s, "result": %s}' \
                    "$sep" "$w" "$seed" "$trace" "$(tail -n 1 "$out.run")"
                sep=$',\n'
            done
        done
        printf '\n ]}\n'
    } >"$out"
    rm -f "$out.run"
    echo "wrote $out" >&2
    ;;
*)
    build
    exec "$bin" "$@" --trace-dir "$here/results"
    ;;
esac
