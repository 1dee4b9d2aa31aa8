#!/bin/sh
# Measures one set of runs for `compare`: RUNS seeds of every workload with
# tracing off, workloads interleaved so that drift on the host falls on all
# of them alike, then one traced run of each workload.
#
#   benchmark/run_set.sh SET [RUNS] [FIRST_SEED]
#
# SET is appended to; start from a file that does not exist.
set -eu
set_file=${1:?usage: run_set.sh SET [RUNS] [FIRST_SEED]}
runs=${2:-10}
first=${3:-1}
here=$(dirname "$0")
bench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- run "$@" --out "$set_file" >/dev/null
}
seed=$first
while [ "$seed" -lt $((first + runs)) ]; do
    for workload in cold_matrix net_models warm_matrix serve_mix; do
        echo "seed $seed $workload" >&2
        bench --workload "$workload" --seed "$seed" --trace 0
    done
    seed=$((seed + 1))
done
for workload in cold_matrix net_models warm_matrix serve_mix; do
    echo "traced $workload" >&2
    bench --workload "$workload" --seed "$first" --trace 1
done
