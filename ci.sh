#!/usr/bin/env sh
# CI gate, local and hosted: formatting, lints (rustc + clippy, whose
# clippy.toml holds the determinism rules), build, tests, smoke gates.
# Everything runs offline — the vendored shims under vendor/ stand in for
# the registry crates (see README "Offline build").
#
# Tiers:
#   ./ci.sh --fast   formatting, clippy, debug tests, doc references, the
#                    profilers compile, bench_pairs.sh parses, the
#                    benchmark crate type-checks —
#                    the edit-loop tier
#   ./ci.sh          the full gate: fast tier + release build, the six
#                    examples run, release tests, then the seven gates
#                    (obs_smoke, chaos_smoke, mc_smoke, mega_smoke,
#                    bench_selfcheck, perf_gate, all_figures --quick)
#                    run *concurrently* against the
#                    release binaries, with per-gate logs replayed in a
#                    fixed order once all of them finish
#
# Each step reports its wall-clock seconds.
set -eu

cd "$(dirname "$0")"

FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *) echo "ci.sh: unknown argument: $arg (supported: --fast)" >&2; exit 2 ;;
    esac
done

# step <label> <cmd...>: run a step and report its wall-clock duration.
step() {
    _label=$1
    shift
    echo "==> $_label"
    _t0=$(date +%s)
    "$@"
    _t1=$(date +%s)
    echo "    ($_label: $((_t1 - _t0))s)"
}

# docs_check: every crates/…, tests/…, examples/…, tools/… path and every
# `--bin NAME` / `--bench NAME` written in the documents of $DOCS exists;
# a miss is printed as `file:line:text`. A path is read up to its first
# character outside [A-Za-z0-9_./-], so globs and `:line` suffixes check
# their directory or file; a `path/to/file.rs::name` reference also needs
# `fn name` in that file. Every `-p PACKAGE` names a workspace package, and
# a `-p PACKAGE … --bin NAME` on one line a binary of it. Then `refs_check`.
DOCS="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md tools/hostprof/README.md"

# pkg_dir NAME: the directory of the workspace package NAME (none if no
# member's first `name = ` line says NAME).
pkg_dir() {
    for _toml in crates/*/Cargo.toml examples/Cargo.toml tests/Cargo.toml vendor/*/Cargo.toml; do
        if [ "$(sed -n 's/^name = "\(.*\)"$/\1/p' "$_toml" | head -n 1)" = "$1" ]; then
            dirname "$_toml"
        fi
    done
}

# pkg_bins DIR: the binaries of the package in DIR: its `[[bin]]` names,
# its `src/bin/*.rs` and, with a `src/main.rs`, the package itself.
pkg_bins() {
    sed -n '/^\[\[bin\]\]/,/^name/s/^name = "\(.*\)"$/\1/p' "$1/Cargo.toml"
    for _rs in "$1"/src/bin/*.rs; do
        [ -e "$_rs" ] && basename "$_rs" .rs
    done
    [ -e "$1/src/main.rs" ] && sed -n 's/^name = "\(.*\)"$/\1/p' "$1/Cargo.toml" | head -n 1
    return 0
}

docs_check() {
    _missing=0
    for _doc in $DOCS; do
        for _path in $(grep -oE '\b(crates|tests|examples|tools)/[A-Za-z0-9_./-]+' "$_doc" |
            sed 's/[.-]*$//' | sort -u); do
            [ -e "$_path" ] && continue
            grep -nF "$_path" "$_doc" | sed "s|^|$_doc:|"
            _missing=1
        done
        for _ref in $(grep -oE '\b(crates|tests|examples|tools)/[A-Za-z0-9_./-]+\.rs::[A-Za-z0-9_]+' "$_doc" |
            sort -u); do
            grep -qsE "fn ${_ref##*::}\b" "${_ref%%::*}" && continue
            grep -nF "$_ref" "$_doc" | sed "s|^|$_doc:|"
            _missing=1
        done
        for _name in $(grep -oE -- '--(bin|bench) [A-Za-z0-9_-]+' "$_doc" | cut -d' ' -f2 | sort -u); do
            grep -qsFx "name = \"$_name\"" crates/*/Cargo.toml && continue
            [ -e "examples/src/bin/$_name.rs" ] && continue
            grep -nE -- "--(bin|bench) $_name([^A-Za-z0-9_-]|\$)" "$_doc" | sed "s|^|$_doc:|"
            _missing=1
        done
        grep -nE -- '(^|[^A-Za-z0-9_-])-p [A-Za-z0-9_-]+' "$_doc" | {
            _bad=0
            while IFS= read -r _hit; do
                _pkg=$(echo "$_hit" | sed -E 's/.*(^|[^A-Za-z0-9_-])-p ([A-Za-z0-9_-]+).*/\2/')
                _bin=$(echo "$_hit" | sed -nE 's/.*-p [A-Za-z0-9_-]+ .*--bin ([A-Za-z0-9_-]+).*/\1/p')
                _dir=$(pkg_dir "$_pkg")
                if [ -n "$_dir" ] && { [ -z "$_bin" ] || pkg_bins "$_dir" | grep -qFx "$_bin"; }; then
                    continue
                fi
                echo "$_doc:$_hit"
                _bad=1
            done
            exit $_bad
        } || _missing=1
    done
    refs_check || _missing=1
    return $_missing
}

# refs_check: in the documents of $DOCS and in the `//` and `#[ignore = "…"]`
# text under crates/ tests/ examples/, every `ROADMAP item N` names an item
# of ROADMAP.md (a `### Item N` heading or an `Item N (…)` tombstone) and
# every `DESIGN.md §x.y` a numbered heading of DESIGN.md, and every `PR N` —
# each number of a `PRs N, M and K` list or an `N–M` range — a `- PR N:`
# entry of CHANGES.md. `ROADMAP 4(b)`-style shorthand and `ISSUE N` name
# nothing that persists (items were renumbered, issues are not kept) and
# fail; a miss is printed as `file:line: reference`.
refs_check() {
    {
        grep -nH '' $DOCS
        grep -rnE '//|#\[ignore' crates tests examples --include='*.rs'
    } | awk \
        -v items="$(grep -oE '(^### |\b)Item [0-9]+ [—(]' ROADMAP.md | grep -oE '[0-9]+' | tr '\n' ' ')" \
        -v sections="$(grep -oE '^#+ [0-9]+(\.[0-9]+)?' DESIGN.md | cut -d' ' -f2 | tr '\n' ' ')" \
        -v prs="$(grep -oE '^- PR [0-9]+:' CHANGES.md | grep -oE '[0-9]+' | tr '\n' ' ')" '
        BEGIN {
            n = split(items, a, " "); for (i = 1; i <= n; i++) item[a[i]] = 1
            n = split(sections, a, " "); for (i = 1; i <= n; i++) section[a[i]] = 1
            n = split(prs, a, " "); for (i = 1; i <= n; i++) pr[a[i]] = 1
        }
        {
            split($0, loc, ":")
            rest = $0
            while (match(rest, /ROADMAP (items? )?[0-9]+(\([a-z]\)|[a-z])?|ISSUE [0-9]+|DESIGN(\.md)? §[0-9]+(\.[0-9]+)?/)) {
                ref = substr(rest, RSTART, RLENGTH)
                rest = substr(rest, RSTART + RLENGTH)
                id = ref
                sub(/^[^0-9]*/, "", id)
                sub(/[^0-9.].*/, "", id)
                if ((ref ~ /^ROADMAP item/ && id in item) || (ref ~ /^DESIGN/ && id in section)) continue
                print loc[1] ":" loc[2] ": " ref
                bad = 1
            }
            rest = $0
            while (match(rest, /PRs? [0-9]+((, and |, | and |–|\/)[0-9]+)*/)) {
                ref = substr(rest, RSTART, RLENGTH)
                rest = substr(rest, RSTART + RLENGTH)
                ids = ref
                gsub(/[^0-9]+/, " ", ids)
                n = split(ids, a, " ")
                for (i = 1; i <= n; i++) {
                    if (a[i] in pr) continue
                    print loc[1] ":" loc[2] ": " ref
                    bad = 1
                    break
                }
            }
        }
        END { exit bad }'
}

# tools_check: the profilers under tools/hostprof (not run by CI) still
# compile warning-free and symbolize.py still parses and answers --help,
# also into a pipe its reader closes early (exit 0, nothing on stderr);
# tools/bench_pairs.sh parses.
# `ast.parse` rather than `py_compile`, which would leave a __pycache__
# behind (running the script writes none); without gcc the C half is
# skipped with a note.
tools_check() {
    if command -v gcc >/dev/null 2>&1; then
        for _src in tools/hostprof/hostprof.c tools/hostprof/heapprof.c; do
            gcc -Wall -Wextra -Werror -fsyntax-only "$_src" || return 1
        done
    else
        echo "    gcc not found: tools/hostprof/*.c not compiled (skipped)"
    fi
    bash -n tools/bench_pairs.sh || return 1
    python3 -c 'import ast, sys; ast.parse(open(sys.argv[1]).read())' tools/hostprof/symbolize.py &&
        python3 tools/hostprof/symbolize.py --help >/dev/null || return 1
    # Its stderr and exit status, while its stdout goes to `| true`.
    _got=$({ { python3 tools/hostprof/symbolize.py --help 2>&3; echo "exit $?" >&3; } | true; } 3>&1)
    [ "$_got" = "exit 0" ] || {
        echo "    symbolize.py --help | true:"
        echo "$_got" | sed 's/^/    /'
        return 1
    }
}

TOTAL0=$(date +%s)

step "cargo fmt --check" cargo fmt --check

step "cargo clippy --all-targets -- -D warnings" \
    cargo clippy --all-targets -- -D warnings

step "cargo test (debug)" cargo test -q

step "docs name only what exists" docs_check

step "profilers compile" tools_check

# The benchmark (BENCHMARK.json) reaches the system only through the
# crates' public APIs: a change that breaks it fails here, not only in the
# full tier's bench_selfcheck. Its build directory is the one run.sh uses.
step "benchmark type-checks" \
    cargo check --offline --manifest-path benchmark/Cargo.toml

if [ "$FAST" = "1" ]; then
    echo "==> ci --fast: all checks passed ($(($(date +%s) - TOTAL0))s)"
    exit 0
fi

step "cargo build --release" cargo build --release

# run_examples: the six example binaries are self-checking scenarios (an
# assert such as durable_store's "recovery must reproduce the live store"
# exits non-zero); they print to stdout and write no file.
run_examples() {
    for _ex in quickstart bank_transfer pluggability dependability durable_store \
        protocol_comparison; do
        ./target/release/$_ex >/dev/null || {
            echo "    example $_ex failed"
            return 1
        }
    done
}

step "examples run" run_examples

step "cargo test (release)" cargo test -q --release

# ---- smoke gates (concurrent) -----------------------------------------
# Every gate below is an independent read-only check over the release
# binaries built above, so they all start at once; each gate's output is
# buffered to its own log and replayed in the fixed order of $GATES when
# the last one finishes, so interleaving never garbles a log and the
# slowest gate bounds the tier's wall clock instead of the sum.
GATE_DIR=$(mktemp -d)
trap 'rm -rf "$GATE_DIR"' EXIT

# The gates are checks: they must leave the tree as they found it (both
# sides are empty outside a git checkout).
tree_status() {
    git status --porcelain 2>/dev/null || true
}
TREE_BEFORE=$(tree_status)

# spawn_gate <name> <cmd...>: run a gate in the background, capturing its
# combined output, exit code, and wall-clock seconds under $GATE_DIR.
spawn_gate() {
    _name=$1
    shift
    (
        _g0=$(date +%s)
        if "$@" >"$GATE_DIR/$_name.log" 2>&1; then
            _grc=0
        else
            _grc=$?
        fi
        echo "$_grc $(($(date +%s) - _g0))" >"$GATE_DIR/$_name.rc"
    ) &
}

# bench_selfcheck: the benchmark of BENCHMARK.json (a crate of its own
# under benchmark/) must still build against the workspace, pass its own
# arithmetic tests, and reproduce its determinism / zero-perturbation /
# golden checks — only virtual numbers are compared, so sharing the host
# with the other gates is fine.
bench_selfcheck() {
    benchmark/run.sh --selfcheck &&
        (cd benchmark && cargo test --release --offline)
}

GATES="obs_smoke chaos_smoke mc_smoke mega_smoke bench_selfcheck perf_gate all_figures"
# The breakdown and attribution tables; the invariants behind them are
# tier-1 tests (tests/tests/trace.rs, crates/harness/tests/breakdown.rs).
spawn_gate obs_smoke ./target/release/obs_smoke
spawn_gate chaos_smoke ./target/release/chaos_smoke
spawn_gate mc_smoke ./target/release/mc_smoke
spawn_gate mega_smoke ./target/release/mega_smoke
spawn_gate bench_selfcheck bench_selfcheck

# Perf gate: the kernel event count and the per-class queue counters of the
# standard sweep against their golden file, and the paper-keyspace RSS
# budget (deterministic, so sharing the host with the other gates is fine);
# wall-clock is printed, never compared.
spawn_gate perf_gate ./target/release/perf_gate

# The paper's figures at quick scale against their golden file; the
# paper-scale golden is verified on demand by the same command without
# --quick (~3 min).
spawn_gate all_figures ./target/release/all_figures --quick

echo "==> smoke gates (running ${GATES} concurrently) …"
wait

GATE_FAILED=0
for _name in $GATES; do
    read -r _grc _gsecs <"$GATE_DIR/$_name.rc"
    echo "==> $_name"
    sed 's/^/    /' "$GATE_DIR/$_name.log"
    if [ "$_grc" = "0" ]; then
        echo "    ($_name: ${_gsecs}s)"
    else
        echo "    ($_name: ${_gsecs}s, FAILED rc=$_grc)"
        GATE_FAILED=1
    fi
done
if [ "$GATE_FAILED" != "0" ]; then
    echo "==> ci: smoke gate(s) failed"
    exit 1
fi
TREE_AFTER=$(tree_status)
if [ "$TREE_BEFORE" != "$TREE_AFTER" ]; then
    echo "==> ci: the smoke gates changed the working tree:"
    echo "--- git status --porcelain before"
    echo "$TREE_BEFORE"
    echo "--- after"
    echo "$TREE_AFTER"
    exit 1
fi

echo "==> ci: all checks passed ($(($(date +%s) - TOTAL0))s)"
