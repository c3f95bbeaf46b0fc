#!/usr/bin/env bash
# End-to-end benchmark correctness smoke: runs the three perfbench workloads
# (wire_batch, solve_fresh, tune_remote) briefly with tracing on, and fails
# when perfbench exits non-zero or any workload reports "correct": false.
# "correct" is the benchmark's own output check: 0 solver calls and
# bit-identical batches on wire_batch, bit-identity with an in-process solve
# on solve_fresh, remote == in-process tune on tune_remote.  A codec or flush
# change that alters a result therefore fails here.  No timing number is
# asserted; the JSON result lines are kept for the artifact.
#
# wire_batch and solve_fresh run 3 s each.  tune_remote runs 20 s: its
# correctness check needs a 16-session quality prefix to complete, and a
# session takes ~0.5 s of CPU with two in flight.
#
# perfbench builds its own Release copy of the library under .bench_build/
# at the repository root, so BUILD_DIR only receives the results.
#
# Usage: tools/ci/perfsmoke.sh [BUILD_DIR]   (default: current dir)
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
out="${1:-.}/perfsmoke"
rm -rf "$out"
mkdir -p "$out"

status=0
for run in "wire_batch 3" "solve_fresh 3" "tune_remote 20"; do
  set -- $run
  python3 "$root/perfbench/run.py" --workload "$1" --seed 1 --seconds "$2" \
    --trace 1 | tee -a "$out/perfsmoke.txt" || status=1
done
grep '^{' "$out/perfsmoke.txt" > "$out/perfsmoke.jsonl" || true

python3 - "$out/perfsmoke.jsonl" <<'PY'
import json
import sys

results = [json.loads(line) for line in open(sys.argv[1])]
if len(results) != 3:
    sys.exit("perfsmoke: expected 3 workload results, got %d" % len(results))
incorrect = [r for r in results if r.get("correct") is not True]
for r in incorrect:
    print("perfsmoke: incorrect run: %s" % json.dumps(r)[:2000],
          file=sys.stderr)
sys.exit(1 if incorrect else 0)
PY

if [ "$status" -ne 0 ]; then
  echo "perfsmoke: perfbench exited non-zero" >&2
  exit 1
fi
echo "perfsmoke: all three workloads correct"
