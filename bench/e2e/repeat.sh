#!/usr/bin/env bash
# Runs the benchmark N times per set, alternating workload order, and prints
# each metric's median, quartiles and spread:
#   bench/e2e/repeat.sh N [--sets K] [--workload W] [--seed S] [--seconds N] [--out FILE]
exec python3 "$(dirname "$0")/run.py" --repeat "$@"
