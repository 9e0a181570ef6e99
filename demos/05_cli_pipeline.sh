#!/usr/bin/env bash
# End-to-end CLI walkthrough: expand a benchmark manifest, train a toy
# prior, run guided inference on one cell, and score the prediction.
set -euo pipefail

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
cd "$(dirname "$0")/.."

cat > "$out/manifest.json" <<'EOF'
{
  "cells": [
    {"motion": {"kind": "reach", "frames": 82, "seed": 900}, "preset": "uniform:1.0"},
    {"motion": {"kind": "reach", "frames": 82, "seed": 900}, "preset": "uniform:1.3"},
    {"motion": {"kind": "arm-swing", "frames": 82, "seed": 901}, "preset": "uniform:1.0", "sigma_l": 0.02, "seed": 5}
  ]
}
EOF

echo "== gen-data =="
python3 -m poseguide.cli gen-data --manifest "$out/manifest.json" --out "$out/bench"
ls "$out/bench"

echo "== train (toy settings for a quick demo) =="
python3 -m poseguide.cli train --data "$out/bench" --out "$out/prior.npz" \
  --steps 300 --window 41 --cond-spec rotations

cell=$(ls "$out/bench" | grep '^reach.*uniform1p0' | head -1)
echo "== infer on cell $cell =="
python3 -m poseguide.cli infer \
  --measurements "$out/bench/$cell/measurements.jsonl" \
  --skeleton "$out/bench/$cell/skeleton.json" \
  --checkpoint "$out/prior.npz" \
  --steps 50 --guidance-scale 1.0 \
  --out "$out/pred.pgseq"

echo "== eval =="
python3 -m poseguide.cli eval \
  --pred "$out/pred.pgseq" --truth "$out/bench/$cell/truth.pgseq" \
  --skeleton "$out/bench/$cell/skeleton.json" \
  --out "$out/report.json"
cat "$out/report.json"
