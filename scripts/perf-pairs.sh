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
# COSCHED=1 runs the two sides of a pair at once instead, both pinned with
# `taskset` to the same CPU (pair k to CPU (k - 1) mod the CPUs this shell
# may use), so both meet the same neighbours on a shared box; it then also
# prints, per pair, the change/parent ratio of each of the five end-to-end
# metrics, and a last line with each metric's median ratio and its
# [min, max] over the pairs. Only the two child processes are pinned.
# Wall-clock metrics (ops_per_s, op_ns_p50) halve under the shared CPU:
# their absolute medians above mean little, and only the ratios, taken
# within a pair, compare the two sides.
#
# Prints one line per run, then per metric: both medians, the parent's
# quartiles, the change's quartiles, the difference of the medians as a
# share of the parent's, the parent's quartile distance on the same scale,
# and the pairs each side won (ties count for neither). Which way is
# better comes from BENCHMARK.json. Exits non-zero if a run fails, reports
# a non-zero `failed`, or prints no metrics.
set -euo pipefail

if [ "$#" -lt 5 ]; then
    sed -n '2,30p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 seconds=$4 pairs=$5
shift 5
first_seed=${FIRST_SEED:-101}
out=${OUT_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs.XXXXXX")}
mkdir -p "$out"
repo=$(cd "$(dirname "$0")/.." && pwd)

extra=("$@")
cosched=${COSCHED:-0}
cpus=($(taskset -c -p $$ 2>/dev/null | sed 's/.*: //' | tr ',' ' ' |
    awk '{ for (i = 1; i <= NF; i++) { n = split($i, r, "-"); for (c = r[1]; c <= r[n]; c++) print c } }'))
launch() { # side binary pair seed [taskset args…]
    local side=$1 bin=$2 pair=$3 seed=$4
    shift 4
    "$@" "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" ${extra[@]+"${extra[@]}"} \
        >"$out/$workload-pair$pair-$side.txt" 2>&1
}
run_side() { # side binary pair seed
    if ! launch "$@"; then
        echo "pair $3 $1: eden-perf exited non-zero, see $out/$workload-pair$3-$1.txt" >&2
        exit 1
    fi
    check_side "$@"
}
check_side() { # side binary pair seed
    local log="$out/$workload-pair$3-$1.txt"
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
    if [ "$cosched" = 1 ]; then
        cpu=${cpus[$(((k - 1) % ${#cpus[@]}))]}
        launch parent "$parent" "$k" "$seed" taskset -c "$cpu" &
        p_pid=$!
        launch change "$change" "$k" "$seed" taskset -c "$cpu" &
        c_pid=$!
        for side in parent change; do
            pid=$p_pid
            [ "$side" = change ] && pid=$c_pid
            if ! wait "$pid"; then
                echo "pair $k $side: eden-perf exited non-zero, see $out/$workload-pair$k-$side.txt" >&2
                exit 1
            fi
        done
        check_side parent "$parent" "$k" "$seed"
        check_side change "$change" "$k" "$seed"
    elif [ $((k % 2)) -eq 1 ]; then
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
if [ "$cosched" = 1 ]; then
    echo
    echo "# co-scheduled: change/parent per pair, then each metric's median ratio [min, max]"
    for k in $(seq 1 "$pairs"); do
        for side in parent change; do
            awk -v k="$k" -v side="$side" \
                '/^[a-z][a-z0-9_.-]* [-0-9.e+]+ / && n < 5 { print k, side, $1, $2; n++ }' \
                "$out/$workload-pair$k-$side.txt"
        done
    done | awk '
        $2 == "parent" { p[$1, $3] = $4 }
        $2 == "change" { c[$1, $3] = $4 }
        !($3 in seen) { seen[$3] = 1; order[++metrics] = $3 }
        $1 > pairs { pairs = $1 }
        END {
            for (k = 1; k <= pairs; k++) {
                line = "pair " k ":"
                for (m = 1; m <= metrics; m++) {
                    name = order[m]
                    if (((k, name) in p) && ((k, name) in c) && p[k, name] != 0) {
                        r = c[k, name] / p[k, name]
                        ratios[name, ++n[name]] = r
                        line = line sprintf("  %s %.3f", name, r)
                    } else {
                        line = line sprintf("  %s -", name)
                    }
                }
                print line
            }
            line = "median:"
            for (m = 1; m <= metrics; m++) {
                name = order[m]; cnt = n[name]
                if (!cnt) { line = line sprintf("  %s -", name); continue }
                for (i = 1; i <= cnt; i++) a[i] = ratios[name, i]
                for (i = 2; i <= cnt; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
                med = cnt % 2 ? a[(cnt + 1) / 2] : (a[cnt / 2] + a[cnt / 2 + 1]) / 2
                line = line sprintf("  %s %.3f [%.3f, %.3f]", name, med, a[1], a[cnt])
            }
            print line
        }'
fi
echo "# runs kept in $out"
