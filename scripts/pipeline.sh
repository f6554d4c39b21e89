#!/bin/sh
# Synthetic end-to-end pipeline: simulate noisy workers, aggregate their
# votes, and score the consensus against the generated ground truth.
# Then, offline: extract labels from mock providers whose answers need the
# response rules and a synonym, aggregate them, and check the consensus.
# Last, check that a mistyped provider option exits 2 and writes nothing.
# Usage: scripts/pipeline.sh [output-dir]
set -eu

out="${1:-/tmp/labelvote-demo}"
mkdir -p "$out"
cat > "$out/workers.json" <<'EOF'
[
  {"worker_id": "w1", "accuracy": 0.753, "missing_rate": 0.0},
  {"worker_id": "w2", "accuracy": 0.887, "missing_rate": 0.0},
  {"worker_id": "w3", "accuracy": 0.875, "missing_rate": 0.0},
  {"worker_id": "w4", "accuracy": 0.911, "missing_rate": 0.0},
  {"worker_id": "w5", "accuracy": 0.934, "missing_rate": 0.0}
]
EOF

labelvote simulate --items 20000 --labels low,mid,high --workers "$out/workers.json" --seed 1 --out "$out/annotations.jsonl" --truth-out "$out/truth.jsonl"
labelvote aggregate --input "$out/annotations.jsonl" --attribute attr --labels low,mid,high --out "$out/predictions.jsonl" --weights-out "$out/weights.json"
labelvote evaluate --predictions "$out/predictions.jsonl" --truth "$out/truth.jsonl"

cat > "$out/products.jsonl" <<'EOF'
{"item_id": "sku-1", "title": "Garanimals Toddler Girl Short Sleeve Graphic T-Shirt"}
{"item_id": "sku-2", "title": "Mens Classic Crew Socks, 6-Pack"}
EOF
cat > "$out/providers.json" <<'EOF'
[
  {"kind": "mock", "provider_id": "m1", "responses": {"Garanimals": "Female.", "Socks": "male"}},
  {"kind": "mock", "provider_id": "m2", "responses": {"Garanimals": "\"female\"", "Socks": "Male!"}},
  {"kind": "mock", "provider_id": "m3", "responses": {"Garanimals": "woman", "Socks": "'male'"}}
]
EOF
echo '{"woman": "female"}' > "$out/synonyms.json"

schema="--attribute gender --labels male,female,unisex"
labelvote extract --products "$out/products.jsonl" $schema --providers "$out/providers.json" --synonyms "$out/synonyms.json" --out "$out/extracted.jsonl"
labelvote aggregate --input "$out/extracted.jsonl" $schema --out "$out/extracted-predictions.jsonl"
grep -qF '{"item_id": "sku-1", "attribute": "gender", "label": "female"}' "$out/extracted-predictions.jsonl" || {
  echo "pipeline: extract leg did not predict female for sku-1" >&2
  exit 1
}

# A mistyped provider option is invalid input: exit 2 at load, no output file.
echo '[{"kind": "mock", "provider_id": "m1", "delay": "x"}]' > "$out/bad-providers.json"
rm -f "$out/bad-extracted.jsonl"
set +e
labelvote extract --products "$out/products.jsonl" $schema --providers "$out/bad-providers.json" --out "$out/bad-extracted.jsonl"
status=$?
set -e
if [ "$status" -ne 2 ] || [ -e "$out/bad-extracted.jsonl" ]; then
  echo "pipeline: extract with a mistyped provider option exited $status, not 2, or wrote output" >&2
  exit 1
fi
