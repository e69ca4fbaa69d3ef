#!/usr/bin/env bash
# Build the benchmark (offline, release, the repository's own profile)
# and run it. Run from anywhere; everything it writes stays under the
# checkout: the build in $CARGO_TARGET_DIR (default benchmark/target),
# scratch directories and trace files in benchmark/out.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one contract run; last stdout line is the result
#   run.sh [--seed N] [--workload W] [--out FILE]           every workload, untraced then traced, one summary
#   run.sh --compare A.json B.json                          two summaries against the bounds in BENCHMARK.json
#   run.sh --spec                                           print BENCHMARK.json from the tables in src/spec.rs
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: standard output belongs to the results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

bin="$target/release/phj-benchmark"
# The cycle simulator indexes its cache sets by real heap addresses, so
# its counts repeat exactly only with address randomisation off.
if setarch "$(uname -m)" -R true 2>/dev/null; then
    exec setarch "$(uname -m)" -R "$bin" --out-dir "$here/out" "$@"
fi
exec "$bin" --out-dir "$here/out" "$@"
