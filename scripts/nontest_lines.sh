#!/usr/bin/env bash
# Non-test lines per workspace crate: every `.rs` file under a crate's
# `src/`, counted up to its first `#[cfg(test)]` attribute line that does not
# introduce a module declaration, with the files of modules declared under
# `#[cfg(test)]` (test-only oracles such as `ce-gnn`'s `per_graph`) left out
# altogether. Such a declaration (`#[cfg(test)]` over `mod name;`) is
# skipped, attribute and all, and the count goes on past it: it can sit in
# the middle of a `lib.rs`, before the re-exports. The attribute is anchored
# (`^#\[cfg\(test\)\]`), so a doc comment that only mentions it does not
# cut a file short. It is anchored at column 0 too: an indented attribute
# belongs to an item inside a block (a `simd_kernel!` body's test-only arm),
# not to the file's trailing test module, and must not end the count there.
#
# Usage: scripts/nontest_lines.sh [repo-root]   (default: the script's repo)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

attr='^#\[cfg\(test\)\][[:space:]]*$'
decl='^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[a-z_0-9]+[[:space:]]*;'

# Files of modules declared as `#[cfg(test)] mod name;` (the declaration on
# the line after the attribute), relative to the repo root.
test_module_files() {
    local src="$1" f dir stem name
    while IFS= read -r f; do
        dir=$(dirname "$f")
        stem=$(basename "$f" .rs)
        case "$stem" in
            lib | main | mod) ;;
            *) dir="$dir/$stem" ;;
        esac
        awk -v attr="$attr" -v decl="$decl" '
            $0 ~ attr { armed = 1; next }
            armed && /^[[:space:]]*$/ { next }
            armed {
                if (match($0, decl)) {
                    line = substr($0, RSTART, RLENGTH)
                    sub(/;.*/, "", line); sub(/.*mod[[:space:]]+/, "", line)
                    print line
                }
                armed = 0
            }' "$f" | while IFS= read -r name; do
            [ -f "$dir/$name.rs" ] && echo "$dir/$name.rs"
            [ -d "$dir/$name" ] && find "$dir/$name" -name '*.rs'
        done
    done < <(find "$src" -name '*.rs' | sort)
}

count_crate() {
    local dir="$1" skip f n total=0
    skip=$(test_module_files "$dir/src" | sort -u)
    while IFS= read -r f; do
        if [ -n "$skip" ] && grep -qxF "$f" <<<"$skip"; then
            continue
        fi
        n=$(awk -v attr="$attr" -v decl="$decl" '
            $0 ~ attr { armed = 1; next }
            armed && /^[[:space:]]*$/ { next }
            armed && $0 ~ decl { armed = 0; next }
            armed { exit }
            { n++ }
            END { print n + 0 }' "$f")
        total=$((total + n))
    done < <(find "$dir/src" -name '*.rs' | sort)
    echo "$total"
}

grand=0
printf '%-14s %8s\n' crate lines
for manifest in Cargo.toml crates/*/Cargo.toml crates/compat/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    [ -d "$dir/src" ] || continue
    name=$(awk -F'"' '/^name[[:space:]]*=/ { print $2; exit }' "$manifest")
    n=$(count_crate "$dir")
    grand=$((grand + n))
    printf '%-14s %8d\n' "$name" "$n"
done
printf '%-14s %8d\n' total "$grand"
