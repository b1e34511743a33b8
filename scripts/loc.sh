#!/bin/sh
# Count non-test Rust lines, per crate and in total.
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (all of it when it has none). Files under a `tests/` directory and
# `testnet.rs` (a test harness kept in `src/`) are not counted; neither is
# `vendor/`, which holds stand-ins for third-party crates. `bench/` is its
# own package and is reported on its own line, outside the total.
#
#   scripts/loc.sh               the working tree
#   scripts/loc.sh --since REV   REV, the working tree, and the change
#
# REV is read with `git show`; nothing is checked out.
set -eu

cd "$(git rev-parse --show-toplevel)"

since=
case "${1:-}" in
--since)
    since=${2:?"--since needs a revision"}
    git rev-parse --verify --quiet "$since^{commit}" >/dev/null || {
        echo "loc.sh: no such revision: $since" >&2
        exit 2
    }
    ;;
"") ;;
*)
    echo "usage: scripts/loc.sh [--since REV]" >&2
    exit 2
    ;;
esac

counted() {
    grep '\.rs$' | grep -v -e '^vendor/' -e '^tests/' -e '/tests/' -e '/testnet\.rs$' || true
}

# The lines of standard input before its first `#[cfg(test)]`.
non_test() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'
}

# "group count" for each counted file of the working tree (tracked or
# new, not ignored).
tree_counts() {
    git ls-files --cached --others --exclude-standard | counted | while read -r f; do
        [ -f "$f" ] && printf '%s %s\n' "$f" "$(non_test <"$f")"
    done
}

rev_counts() {
    git ls-tree -r --name-only "$1" | counted | while read -r f; do
        printf '%s %s\n' "$f" "$(git show "$1:$f" | non_test)"
    done
}

# The group a path counts toward: its crate, `eden` for the umbrella
# package, `examples`, or `bench`.
group='
{
    n = split($1, p, "/")
    if (p[1] == "crates") g = p[2]
    else if (p[1] == "src") g = "eden"
    else g = p[1]
    print g, $2
}'

report() {
    awk '
    { now[$1] += $2; was[$1] += $3; seen[$1] = 1 }
    END {
        for (g in seen) order[++k] = g
        for (i = 1; i <= k; i++)
            for (j = i + 1; j <= k; j++)
                if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
        for (i = 1; i <= k; i++) {
            g = order[i]
            if (g == "bench") continue
            line(g, was[g], now[g])
            tw += was[g]; tn += now[g]
        }
        line("total", tw, tn)
        if ("bench" in seen) line("bench (apart)", was["bench"], now["bench"])
    }
    function line(g, w, n) {
        if (since) printf "%-16s %7d %7d %+7d\n", g, w, n, n - w
        else printf "%-16s %7d\n", g, n
    }' since="$since"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tree_counts | awk "$group" >"$tmp/now"
if [ -n "$since" ]; then
    rev_counts "$since" | awk "$group" >"$tmp/was"
    printf '%-16s %7s %7s %7s\n' group "$(git rev-parse --short "$since")" tree change
    {
        awk '{ print $1, $2, 0 }' "$tmp/now"
        awk '{ print $1, 0, $2 }' "$tmp/was"
    } | report
else
    printf '%-16s %7s\n' group lines
    awk '{ print $1, $2, 0 }' "$tmp/now" | report
fi
