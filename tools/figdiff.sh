#!/usr/bin/env bash
# Compare the deterministic figure and ablation binaries of two builds.
#
#   tools/figdiff.sh A_BIN_DIR [B_BIN_DIR]
#
# Runs each binary `--quick --seed 7` from both directories (e.g. the
# `target/release` of the parent commit and of a change) and prints one
# line per figure:
#
#   same     byte-identical output
#   DIFF     outputs differ (the two are kept in $FIGDIFF_OUT)
#   TIMEOUT  a side did not finish within $FIGDIFF_TIMEOUT seconds
#            (default 300)
#   FAIL     a side exited non-zero, or its binary is missing
#
# With one directory each figure runs once and a figure that finishes
# reads `ok`: the check that no quick figure hangs or crashes (CI runs
# this). A against itself must read `same` on every line: the simulator
# is bit-deterministic per seed, so a DIFF there is nondeterminism.
# Exits non-zero unless every line reads `same` / `ok`.
#
# fig12_overhead is left out: it times the scheduler on the wall clock.
set -u

if [ "$#" -lt 1 ] || [ "$#" -gt 2 ]; then
    echo "usage: $0 A_BIN_DIR [B_BIN_DIR]" >&2
    exit 2
fi
a_dir=$1
b_dir=${2:-}
limit=${FIGDIFF_TIMEOUT:-300}
out=${FIGDIFF_OUT:-$(mktemp -d)}
mkdir -p "$out"

figures="fig01_utilization fig02_workload fig06_fairshare fig07_single_tenant
fig08_multi_tenant fig09_pareto fig10_spatial fig11_policies fig13_batch
fig14_quantum fig15_semantics fig16_inaccuracy ablation_contexts
ablation_jitter"

# Run figure $2 of directory $1 into $3; on failure say how in $verdict.
run() {
    timeout "$limit" "$1/$2" --quick --seed 7 >"$3" 2>&1
    case $? in
    0) return 0 ;;
    124) verdict=TIMEOUT ;;
    *) verdict=FAIL ;;
    esac
    return 1
}

status=0
for fig in $figures; do
    if [ -z "$b_dir" ]; then
        verdict=ok
        run "$a_dir" "$fig" "$out/$fig.a.txt"
    else
        verdict=same
        if run "$a_dir" "$fig" "$out/$fig.a.txt" &&
            run "$b_dir" "$fig" "$out/$fig.b.txt" &&
            ! cmp -s "$out/$fig.a.txt" "$out/$fig.b.txt"; then
            verdict=DIFF
        fi
    fi
    case $verdict in same | ok) ;; *) status=1 ;; esac
    printf '%-22s %s\n' "$fig" "$verdict"
done
if [ "$status" -ne 0 ] || [ -n "${FIGDIFF_OUT:-}" ]; then
    echo "outputs kept in $out" >&2
else
    rm -rf "$out"
fi
exit "$status"
