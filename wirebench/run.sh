#!/usr/bin/env bash
# Builds `xqd` and the wirebench driver (release, offline) into one target
# directory and runs the driver. With no arguments it runs the smoke pass;
# otherwise the arguments go to the driver, e.g.
#   wirebench/run.sh --workload point_lookup --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -f src/bin/xqd.rs ]; then
  echo "wirebench/run.sh: $(pwd) is not a checkout of the xqd repository" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-wirebench/target}"
# cargo's progress goes to stderr; stdout carries only the benchmark's lines
cargo build --release --offline --quiet --bin xqd
cargo build --release --offline --quiet --manifest-path wirebench/Cargo.toml
if [ "$#" -eq 0 ]; then
  set -- --smoke
fi
exec "$CARGO_TARGET_DIR/release/wirebench" "$@"
