#!/usr/bin/env bash
# Build the `linguist` CLI and the benchmark from source, then run one
# workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build products go to $CARGO_TARGET_DIR (default: perfbench/target), and
# the evaluator's temporary APT files to a directory inside it, so a run
# reads and writes only inside the checkout. Build output goes to stderr;
# the benchmark's last stdout line is its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/serve ]; then
    echo "perfbench: run from a checkout of the repository" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet -p linguist-serve --bin linguist >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
tmp="$CARGO_TARGET_DIR/perfbench-tmp"
mkdir -p "$tmp"
export TMPDIR
TMPDIR="$(cd "$tmp" && pwd)"
export LINGUIST_JIT_CACHE="$TMPDIR/jit"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
