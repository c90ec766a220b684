#!/usr/bin/env bash
# Alternating A/B pairs of one benchmark workload, for a wall-clock claim on a
# noisy host:
#
#   tools/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED N
#
# PARENT_BIN and CHANGE_BIN are two `gdur-benchmark` binaries (each built from
# its own checkout's benchmark/Cargo.toml). Each of the N pairs runs one
# `--child --workload WORKLOAD --seed SEED --horizon full` repetition of each
# side, the parent first on odd pairs. Prints, per side, the quartiles of
# wall_s, peak_rss_mib and setup_s, and in how many pairs the change read
# lower. Exits 1 if a virtual end-to-end metric or sim.events differs between
# any two runs (same seed, same virtual numbers), 2 on a usage error.
set -euo pipefail

if [ $# -ne 5 ]; then
    echo "usage: tools/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED N" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 n=$5
virtual=(commit_tps commit_latency_p50_ms commit_latency_p99_ms term_latency_update_ms
    commit_ratio sim.events)
host=(wall_s peak_rss_mib setup_s)

# value METRIC LINE: the metric's value in one JSON result line.
value() { grep -o "\"$1\":[^,}]*" <<<"$2" | cut -d: -f2; }

samples=$(mktemp)
trap 'rm -f "$samples"' EXIT
declare -A first
status=0
for ((i = 1; i <= n; i++)); do
    order=(parent change)
    ((i % 2)) || order=(change parent)
    for side in "${order[@]}"; do
        bin=$parent
        [ "$side" = change ] && bin=$change
        line=$("$bin" --child --workload "$workload" --seed "$seed" --horizon full)
        for m in "${virtual[@]}"; do
            v=$(value "$m" "$line")
            if [ -z "${first[$m]+set}" ]; then
                first[$m]=$v
            elif [ "${first[$m]}" != "$v" ]; then
                echo "pair $i, $side: $m = $v, the first run read ${first[$m]}" >&2
                status=1
            fi
        done
        for m in "${host[@]}"; do
            echo "$i $side $m $(value "$m" "$line")" >>"$samples"
        done
    done
done

echo "$workload, seed $seed, $n pairs (quartiles q1 / median / q3)"
printf '%-13s %-31s %-31s %8s %6s\n' metric parent change median won
for m in "${host[@]}"; do
    # Linear-interpolation quartiles of each side, then the pairs won.
    stats=$(for side in parent change; do
        awk -v s="$side" -v m="$m" '$2 == s && $3 == m { print $4 }' "$samples" | sort -g |
            awk '{ v[NR] = $1 }
                function q(p,   h, lo) { h = (NR - 1) * p; lo = int(h); return v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1]) }
                END { printf "%.4g %.4g %.4g ", q(0.25), q(0.5), q(0.75) }'
    done)
    won=$(awk -v m="$m" '$3 == m { x[$1, $2] = $4; p[$1] = 1 }
        END { for (i in p) w += x[i, "change"] < x[i, "parent"]; print w + 0 }' "$samples")
    read -r p1 p2 p3 c1 c2 c3 <<<"$stats"
    delta=$(awk -v a="$p2" -v b="$c2" 'BEGIN { printf "%+.1f%%", a ? 100 * (b - a) / a : 0 }')
    printf '%-13s %-31s %-31s %8s %6s\n' "$m" "$p1 / $p2 / $p3" "$c1 / $c2 / $c3" "$delta" "$won/$n"
done
[ "$status" = 0 ] || echo "virtual numbers differ: see above" >&2
exit "$status"
