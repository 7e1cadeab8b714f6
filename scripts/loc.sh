#!/usr/bin/env bash
# The one definition of ROADMAP's "tracked number": lines of Rust the
# workspace owns (crates, facade, root tests, examples), the offline shims
# excluded.  Its production part (and that of the store's database, the
# largest file), the benchmark package, the shims and scripts/ (the bench
# gate's language lives there) are reported beside it.
# Run from anywhere; CI prints it after the build.  No gate reads it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

# Lines of the NUL-separated files on stdin above each one's first
# `#[cfg(test)]`: the program without its unit tests, so a change that adds a
# test does not read as growth.
above_tests() {
    xargs -0 awk 'FNR == 1 { on = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s }'
}
production() {
    find crates/*/src src -name '*.rs' -not -path '*/shims/*' -print0 | above_tests
}

echo "workspace  $(count crates src tests examples -not -path '*/shims/*')"
echo "production $(production)"
echo "  store db $(printf '%s\0' crates/store/src/db.rs | above_tests)"
echo "benchmark  $(count benchmark -not -path '*/target/*')"
echo "shims      $(count crates/shims)"
echo "scripts    $(cat scripts/* | wc -l)"
