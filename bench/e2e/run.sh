#!/usr/bin/env bash
# The repository benchmark: builds bench/e2e into build/e2e and runs it.
#   bench/e2e/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
# See bench/e2e/README.md and run.py --help.
exec python3 "$(dirname "$0")/run.py" "$@"
