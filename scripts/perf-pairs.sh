#!/usr/bin/env bash
# Alternating parent/change pairs of one eden-perf workload: the protocol
# every performance PR since PR 12 ran by hand (choosing-metrics §8).
#
#   scripts/perf-pairs.sh <parent-bin> <change-bin> <workload> <seconds> <pairs> [eden-perf args…]
#
# Build each commit's `eden-perf` once, into its own CARGO_TARGET_DIR, and
# pass the two binaries. Pair k runs both sides at seed FIRST_SEED + k - 1
# (FIRST_SEED defaults to 101; give a claim a seed range not used while the
# change was written); odd pairs run the parent first, even pairs the
# change. Extra arguments go to both sides (`--trace 1` compares the
# per-layer rows the same way). Every run's output is kept under OUT_DIR
# (default: a fresh temporary directory, printed at the end).
#
# Prints one line per run, then per metric: both medians, the parent's
# quartiles, the change's quartiles, the difference of the medians as a
# share of the parent's, the parent's quartile distance on the same scale,
# and the pairs each side won (ties count for neither). Which way is
# better comes from BENCHMARK.json. Exits non-zero if a run fails, reports
# a non-zero `failed`, or prints no metrics.
set -euo pipefail

if [ "$#" -lt 5 ]; then
    sed -n '2,20p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 seconds=$4 pairs=$5
shift 5
first_seed=${FIRST_SEED:-101}
out=${OUT_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs.XXXXXX")}
mkdir -p "$out"
repo=$(cd "$(dirname "$0")/.." && pwd)

extra=("$@")
run_side() { # side binary pair seed
    local log="$out/$workload-pair$3-$1.txt"
    if ! "$2" --workload "$workload" --seed "$4" --seconds "$seconds" ${extra[@]+"${extra[@]}"} >"$log" 2>&1; then
        echo "pair $3 $1: eden-perf exited non-zero, see $log" >&2
        exit 1
    fi
    if ! grep -q '^# attempted=[0-9]* failed=0 ' "$log"; then
        echo "pair $3 $1: $(grep '^# attempted=' "$log" || echo 'no check line'), see $log" >&2
        exit 1
    fi
    # one line per run: the end-to-end metrics, or the head of a traced run
    awk -v tag="pair $3 seed $4 $1" '
        /^[a-z][a-z0-9_.-]* [-0-9.e+]+ / && n < 5 { line = line "  " $1 " " $2; n++ }
        END { print tag ":" line }' "$log"
}

for k in $(seq 1 "$pairs"); do
    seed=$((first_seed + k - 1))
    if [ $((k % 2)) -eq 1 ]; then
        run_side parent "$parent" "$k" "$seed"
        run_side change "$change" "$k" "$seed"
    else
        run_side change "$change" "$k" "$seed"
        run_side parent "$parent" "$k" "$seed"
    fi
done

echo
echo "# $workload, $pairs pairs of ${seconds}s, seeds $first_seed..$((first_seed + pairs - 1))${extra[*]+, ${extra[*]}}"
# metric lines are `name value unit [n=…]`; everything else starts with # or {
for k in $(seq 1 "$pairs"); do
    for side in parent change; do
        awk -v k="$k" -v side="$side" \
            '/^[a-z][a-z0-9_.-]* [-0-9.e+]+ / { print $1, k, side, $2 }' \
            "$out/$workload-pair$k-$side.txt"
    done
done | awk -v spec="$repo/BENCHMARK.json" '
    function quantile(a, n, q,    pos, lo, frac) {
        pos = (n - 1) * q; lo = int(pos); frac = pos - lo
        return lo + 1 < n ? a[lo + 1] + frac * (a[lo + 2] - a[lo + 1]) : a[n]
    }
    function sorted(metric, side, dst,    k, n, i, j, t) {
        n = 0
        for (k = 1; k <= pairs; k++) if ((metric, k, side) in v) dst[++n] = v[metric, k, side]
        for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
        return n
    }
    BEGIN {
        while ((getline line < spec) > 0) {
            if (match(line, /"name": "[^"]*"/)) name = substr(line, RSTART + 9, RLENGTH - 10)
            if (line ~ /"better": "higher"/) higher[name] = 1
        }
    }
    { if (!($1 in seen)) { seen[$1] = 1; order[++metrics] = $1 } v[$1, $2, $3] = $4; if ($2 > pairs) pairs = $2 }
    END {
        if (!metrics) { print "no metric lines in any run" > "/dev/stderr"; exit 1 }
        printf "%-28s %14s %31s %14s %31s %8s %8s  %s\n", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "diff", "iqr", "won p/c"
        for (m = 1; m <= metrics; m++) {
            name = order[m]
            np = sorted(name, "parent", p); nc = sorted(name, "change", c)
            pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
            p1 = quantile(p, np, 0.25); p3 = quantile(p, np, 0.75)
            c1 = quantile(c, nc, 0.25); c3 = quantile(c, nc, 0.75)
            wp = wc = 0
            for (k = 1; k <= pairs; k++) {
                a = v[name, k, "parent"]; b = v[name, k, "change"]
                if (a == b) continue
                if ((b > a) == (name in higher)) wc++; else wp++
            }
            diff = pm != 0 ? sprintf("%+.1f%%", (cm - pm) / pm * 100) : "-"
            iqr = pm != 0 ? sprintf("%.1f%%", (p3 - p1) / pm * 100) : "-"
            printf "%-28s %14.6g %31s %14.6g %31s %8s %8s  %d/%d%s\n", name, pm, sprintf("[%.6g, %.6g]", p1, p3), cm, sprintf("[%.6g, %.6g]", c1, c3), diff, iqr, wp, wc, (name in higher) ? "  (higher is better)" : ""
        }
    }'
echo "# runs kept in $out"
