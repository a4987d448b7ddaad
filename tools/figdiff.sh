#!/usr/bin/env bash
# Compare the deterministic figure and ablation binaries of two builds.
#
#   tools/figdiff.sh A_BIN_DIR B_BIN_DIR
#
# Runs each binary `--quick --seed 7` from both directories (e.g. the
# `target/release` of the parent commit and of a change) and prints one
# line per figure:
#
#   same     byte-identical output
#   DIFF     outputs differ (the two are kept in $FIGDIFF_OUT)
#   TIMEOUT  either side did not finish within $FIGDIFF_TIMEOUT seconds
#            (default 300), or exited non-zero
#
# A against itself must read `same` on every line: the simulator is
# bit-deterministic per seed, so a DIFF there is nondeterminism and a
# TIMEOUT is a quick figure that hangs. Exits non-zero unless every
# line reads `same`.
#
# fig12_overhead is left out: it times the scheduler on the wall clock.
set -u

if [ "$#" -ne 2 ]; then
    echo "usage: $0 A_BIN_DIR B_BIN_DIR" >&2
    exit 2
fi
a_dir=$1
b_dir=$2
limit=${FIGDIFF_TIMEOUT:-300}
out=${FIGDIFF_OUT:-$(mktemp -d)}
mkdir -p "$out"

figures="fig01_utilization fig02_workload fig06_fairshare fig07_single_tenant
fig08_multi_tenant fig09_pareto fig10_spatial fig11_policies fig13_batch
fig14_quantum fig15_semantics fig16_inaccuracy ablation_contexts
ablation_jitter"

status=0
for fig in $figures; do
    verdict=same
    for side in a b; do
        if [ "$side" = a ]; then dir=$a_dir; else dir=$b_dir; fi
        if ! timeout "$limit" "$dir/$fig" --quick --seed 7 \
            >"$out/$fig.$side.txt" 2>&1; then
            verdict=TIMEOUT
            break
        fi
    done
    if [ "$verdict" = same ] && ! cmp -s "$out/$fig.a.txt" "$out/$fig.b.txt"; then
        verdict=DIFF
    fi
    [ "$verdict" = same ] || status=1
    printf '%-22s %s\n' "$fig" "$verdict"
done
if [ "$status" -ne 0 ] || [ -n "${FIGDIFF_OUT:-}" ]; then
    echo "outputs kept in $out" >&2
else
    rm -rf "$out"
fi
exit "$status"
