#!/usr/bin/env bash
# The one definition of ROADMAP's "tracked number": lines of Rust the
# workspace owns (crates, facade, root tests, examples), the offline shims
# excluded.  The benchmark package, the shims and scripts/ (the bench gate's
# language lives there) are reported beside it.
# Run from anywhere; CI prints it after the build.  No gate reads it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

echo "workspace $(count crates src tests examples -not -path '*/shims/*')"
echo "benchmark $(count benchmark -not -path '*/target/*')"
echo "shims     $(count crates/shims)"
echo "scripts   $(cat scripts/* | wc -l)"
