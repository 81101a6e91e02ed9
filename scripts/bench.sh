#!/usr/bin/env bash
# Reproduces the paper-figure benchmarks plus the journal-commit ablation
# and archives each run as BENCH_<name>.json (schema: docs/benchmarks.md).
#
# Usage:
#   scripts/bench.sh [build-dir] [out-dir] [bench ...]
#
# Defaults: build-dir=build, out-dir=., benches=fig3_multiprotocol
# fig4_proportional fig5_adaptive fig6_lot_overhead abl_adapt_period
# abl_staged abl_journal_commit abl_wire_speed abl_replication abl_scale
# abl_hsm. Any machine-readable
# JSONL rows a bench prints are lifted into the "rows" array; the full
# stdout/stderr transcript is preserved verbatim under "raw". The six
# deterministic sim transcripts (fig3-6, abl_adapt_period, abl_staged) are
# also regression tests: CTest label `figures` (tests/check_figure.py).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
shift $(( $# > 2 ? 2 : $# )) || true
BENCHES=("$@")
if [ "${#BENCHES[@]}" -eq 0 ]; then
  BENCHES=(fig3_multiprotocol fig4_proportional fig5_adaptive
           fig6_lot_overhead abl_adapt_period abl_staged
           abl_journal_commit abl_wire_speed abl_replication abl_scale
           abl_hsm)
fi

if [ ! -d "$BUILD_DIR" ]; then
  echo "bench.sh: build dir '$BUILD_DIR' not found; run cmake first" >&2
  exit 1
fi

echo "== building benchmarks =="
cmake --build "$BUILD_DIR" --target "${BENCHES[@]}" -j >/dev/null

GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
mkdir -p "$OUT_DIR"

for name in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$name"
  if [ ! -x "$bin" ]; then
    echo "bench.sh: skipping $name ($bin not built)" >&2
    continue
  fi
  echo "== running $name =="
  raw="$(mktemp)"
  start="$(date +%s.%N)"
  "$bin" >"$raw" 2>&1
  end="$(date +%s.%N)"
  out="$OUT_DIR/BENCH_${name}.json"
  RAW_FILE="$raw" NAME="$name" BIN="$bin" GIT_REV="$GIT_REV" \
  START="$start" END="$end" OUT="$out" python3 - <<'PY'
import json, os, datetime

raw = open(os.environ["RAW_FILE"], encoding="utf-8", errors="replace").read()
rows = []
for line in raw.splitlines():
    line = line.strip()
    if not (line.startswith("{") and line.endswith("}")):
        continue
    try:
        obj = json.loads(line)
    except ValueError:
        continue
    if isinstance(obj, dict):
        rows.append(obj)

doc = {
    "name": os.environ["NAME"],
    "binary": os.environ["BIN"],
    "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    "git": os.environ["GIT_REV"],
    "duration_sec": round(float(os.environ["END"])
                          - float(os.environ["START"]), 3),
    "rows": rows,
    "raw": raw,
}
with open(os.environ["OUT"], "w", encoding="utf-8") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"  -> {os.environ['OUT']} ({len(rows)} rows, "
      f"{doc['duration_sec']}s)")
PY
  rm -f "$raw"
done

echo "== done =="
