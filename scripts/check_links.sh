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
# `crates/*/Cargo.toml`.
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

if [ "$fail" -ne 0 ]; then
    echo "link and binary-name check failed"
    exit 1
fi
echo "link and binary-name check passed (${#files[@]} files)"
