#!/usr/bin/env bash
# Run the benchmark gate on two revisions in alternating pairs.
#
#   tools/ab.sh BASE CHANGE SEED...
#
# BASE and CHANGE are git revisions (`git stash create` names the
# working tree as one). Each is exported with `git archive` into its
# own directory under $AB_DIR, so it has its own target dir and is
# built from committed files only, and the gate is built there. The
# command, the run length and the workloads come from CHANGE's
# BENCHMARK.json and are the same for both sides: for every workload W
# and every SEED, each side runs
#
#   <command> --workload W --seed S --seconds <run_seconds>
#
# with the side that goes first alternating from pair to pair. Every
# run's last stdout line (the result) is appended to $AB_DIR/runs.jsonl
# as `{side, rev, workload, seed, exit, lag_p99, discarded, result}`,
# whether the run was `correct` or not; `lag_p99` is the reported
# attempt's `gen.send_lag_us_p99` (a lagging sender alone can raise the
# strict tail, or make the run invalid) and `discarded` the attempts
# the gate threw away as invalid. A run that cannot be recorded stops
# the script. The full output stays in $AB_DIR/logs. At the end the
# end-to-end metrics of BENCHMARK.json are printed per workload, one
# row per run and side, with each side's median over its correct runs.
# Runs that were not correct are marked `NO` and kept in the table. No
# statistics, no verdicts: `compare` and the gate judge.
#
# Environment: AB_DIR (default: a new `mktemp -d` directory). Needs jq.
set -u -o pipefail

if [ "$#" -lt 3 ]; then
    echo "usage: $0 BASE CHANGE SEED..." >&2
    exit 2
fi
base=$1
change=$2
shift 2
seeds=$*
for s in $seeds; do
    case $s in
    '' | *[!0-9]*) echo "$0: seed '$s' is not a non-negative integer" >&2; exit 2 ;;
    esac
done
top=$(git rev-parse --show-toplevel) || exit 2
rev_a=$(git -C "$top" rev-parse --verify "$base^{commit}") || exit 2
rev_b=$(git -C "$top" rev-parse --verify "$change^{commit}") || exit 2
dir=${AB_DIR:-$(mktemp -d)}
mkdir -p "$dir/logs" || exit 2
runs=$dir/runs.jsonl

# Export commit $2 into $dir/$1 and build its gate there, so that no
# measured run starts right after a compile.
checkout() {
    rm -rf "${dir:?}/$1"
    mkdir -p "$dir/$1"
    git -C "$top" archive "$2" | tar -x -C "$dir/$1" || exit 2
    echo "$1 = $2" >&2
    (cd "$dir/$1" &&
        cargo build --release --quiet --manifest-path cameo_benchmark/Cargo.toml) || exit 2
}
checkout A "$rev_a"
checkout B "$rev_b"
manifest=$dir/B/BENCHMARK.json
mapfile -t command < <(jq -r '.command[]' "$manifest")
seconds=$(jq -er '.run_seconds' "$manifest") || exit 2
workloads=$(jq -er '.workloads[].name' "$manifest") || exit 2
if [ "${#command[@]}" -eq 0 ]; then
    echo "$0: no command in $manifest" >&2
    exit 2
fi

# One run of side $1 on workload $2, seed $3.
run() {
    local log=$dir/logs/$2.$3.$1 rev=$rev_a code last lag discarded
    [ "$1" = B ] && rev=$rev_b
    (cd "$dir/$1" &&
        "${command[@]}" --workload "$2" --seed "$3" --seconds "$seconds") >"$log.out" 2>"$log.err"
    code=$?
    last=$(tail -n 1 "$log.out")
    lag=$(awk '$1 == "gen.send_lag_us_p99" { print $2 }' "$log.out")
    discarded=$(grep -c '^# attempt' "$log.out")
    jq -cn --arg side "$1" --arg rev "$rev" --arg w "$2" --argjson seed "$3" \
        --argjson exit "$code" --arg lag "$lag" --argjson discarded "$discarded" \
        --arg line "$last" \
        '{side: $side, rev: $rev, workload: $w, seed: $seed, exit: $exit,
          lag_p99: ($lag | tonumber? // null), discarded: $discarded,
          result: ($line | fromjson? // $line)}' >>"$runs" || {
        echo "$0: could not record $2 seed $3 $1 in $runs" >&2
        exit 1
    }
    echo "$2 seed $3 $1: exit $code" >&2
}

pair=0
for w in $workloads; do
    for s in $seeds; do
        if [ $((pair % 2)) -eq 0 ]; then
            run A "$w" "$s"
            run B "$w" "$s"
        else
            run B "$w" "$s"
            run A "$w" "$s"
        fi
        pair=$((pair + 1))
    done
done

echo "runs: $runs"
jq -rs --slurpfile m "$manifest" '
  ($m[0].end_to_end | map(.name)) as $names
  | def cell: if . == null then "-" else (. * 10000 | round / 10000 | tostring) end;
    def median: sort | if length == 0 then null
      elif length % 2 == 1 then .[length / 2 | floor]
      else (.[length / 2 - 1] + .[length / 2]) / 2 end;
    def correct: (.result | type) == "object" and .result.correct == true;
    def value($n): (.result | objects | .metrics[$n].value) // null;
  group_by(.workload)[]
  | . as $w
  | "", $w[0].workload,
    (["seed", "side", "correct", "lag_p99", "discarded"] + $names | join("\t")),
    ($w | sort_by(.seed, .side)[]
      | . as $r
      | [(.seed | tostring), .side, (if correct then "yes" else "NO (exit \(.exit))" end),
         (.lag_p99 | cell), (.discarded | tostring)]
        + ($names | map(. as $n | $r | value($n) | cell))
      | join("\t")),
    (["A", "B"][] as $side
      | ($w | map(select(.side == $side and correct))) as $ok
      | ["median", $side, "\($ok | length) runs", ($ok | map(.lag_p99 | numbers) | median | cell), ""]
        + ($names | map(. as $n | $ok | map(value($n)) | median | cell))
      | join("\t"))
' "$runs" | awk -F '\t' '
  { row[NR] = $0; for (i = 1; i <= NF; i++) if (length($i) > w[i]) w[i] = length($i) }
  END {
    for (r = 1; r <= NR; r++) {
      n = split(row[r], f, "\t"); s = ""
      for (i = 1; i <= n; i++) s = s sprintf("%-" w[i] "s  ", f[i])
      sub(/ +$/, "", s); print s
    }
  }'
