#!/usr/bin/env bash
# Build the benchmark and run every workload for two passes with all
# self-checks on (10–15 s). Exits non-zero when the build fails,
# a port is taken, or any check fails. Not wired into CI yet: a later PR adds
# the job.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke "$@"
