#!/usr/bin/env bash
# Relative-link check (lychee-style, offline) over the markdown docs:
# every `[text](target)` whose target is not an absolute URL or a pure
# anchor must resolve to an existing file or directory relative to the
# markdown file that references it. External URLs are skipped — this
# build environment has no network — so the check is deterministic.
#
# The same files, plus the verify skill, must name only binaries the
# workspace builds: every `--bin NAME` and `target/release/NAME` must be
# a `crates/*/src/bin/NAME.rs` file or a `[[bin]]` of a
# `crates/*/Cargo.toml`. And the bench-output table of
# docs/ARCHITECTURE.md must list exactly the bench binaries.
#
# Usage: scripts/check_links.sh [FILE.md ...]
# (defaults to README.md, PAPER.md, PAPERS.md, ROADMAP.md, docs/*.md)

set -u

cd "$(dirname "$0")/.."

files=("$@")
if [ "${#files[@]}" -eq 0 ]; then
    files=(README.md PAPER.md PAPERS.md ROADMAP.md docs/*.md)
fi

fail=0
for file in "${files[@]}"; do
    [ -f "$file" ] || { echo "MISSING FILE: $file"; fail=1; continue; }
    dir=$(dirname "$file")
    # Extract inline markdown link targets: [text](target).
    targets=$(grep -o '\[[^]]*\]([^)]*)' "$file" | sed 's/.*(\(.*\))/\1/')
    while IFS= read -r target; do
        [ -n "$target" ] || continue
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        # Strip an anchor suffix (docs/FOO.md#section).
        path="${target%%#*}"
        [ -n "$path" ] || continue
        if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
            echo "BROKEN LINK: $file -> $target"
            fail=1
        fi
    done <<< "$targets"
done

bins=$(
    for f in crates/*/src/bin/*.rs; do basename "$f" .rs; done
    awk '/^\[\[bin\]\]/ { inbin = 1; next }
         /^\[/ { inbin = 0 }
         inbin && /^name *=/ { gsub(/^name *= *"|".*$/, ""); print }' crates/*/Cargo.toml
)
skill=.claude/skills/verify/SKILL.md
[ -f "$skill" ] && files+=("$skill")
for file in "${files[@]}"; do
    [ -f "$file" ] || continue
    names=$(grep -oE -- '--bin [A-Za-z0-9_-]+|target/release/[A-Za-z0-9_-]+' "$file" |
        sed -E 's/^--bin //; s#^target/release/##' | sort -u)
    for name in $names; do
        if ! grep -qxF -- "$name" <<< "$bins"; then
            echo "UNKNOWN BINARY: $file -> $name"
            fail=1
        fi
    done
done

# docs/ARCHITECTURE.md's "Where each bench writes its results" table
# and the bench targets must match both ways: every name in the table's
# first column is a `crates/bench/src/bin/NAME.rs` target or a
# `prefix_*` pattern that matches one, and every such target is named
# or matched there. First-column entries holding a space are commands
# (`cargo bench ...`), not binaries, and are skipped.
arch=docs/ARCHITECTURE.md
bench_bins=$(for f in crates/bench/src/bin/*.rs; do basename "$f" .rs; done)
rows=$(awk '/^## Where each bench writes its results/ { in_table = 1; next }
            /^## / { in_table = 0 }
            in_table && /^\| `/' "$arch" |
    sed -E 's/^\| `([^`]*)`.*/\1/' | grep -v ' ')
if [ -z "$rows" ]; then
    echo "MISSING BENCH TABLE: $arch"
    fail=1
fi
while IFS= read -r row; do
    [ -n "$row" ] || continue
    found=0
    while IFS= read -r bin; do
        # shellcheck disable=SC2254 # the row is a glob pattern
        case "$bin" in $row) found=1 ;; esac
    done <<< "$bench_bins"
    if [ "$found" -eq 0 ]; then
        echo "STALE BENCH ROW: $arch -> $row"
        fail=1
    fi
done <<< "$rows"
while IFS= read -r bin; do
    found=0
    while IFS= read -r row; do
        [ -n "$row" ] || continue
        # shellcheck disable=SC2254
        case "$bin" in $row) found=1 ;; esac
    done <<< "$rows"
    if [ "$found" -eq 0 ]; then
        echo "BENCH BINARY NOT IN TABLE: $arch -> $bin"
        fail=1
    fi
done <<< "$bench_bins"

if [ "$fail" -ne 0 ]; then
    echo "link and binary-name check failed"
    exit 1
fi
echo "link and binary-name check passed (${#files[@]} files)"
