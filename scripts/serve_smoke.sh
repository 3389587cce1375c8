#!/usr/bin/env bash
# Serve smoke: runs the committed 200-instance repeated-consensus spec
# (C9(1,2) under sync and async-fifo, plus an Algorithm 1 lane on C5) in
# --strict mode at 1, 2 and 8 workers, byte-compares the canonical JSON
# reports across worker counts, and asserts the report's own verdicts:
# every instance correct and the per-tag ledger-channel occupancy bounded
# (<= 2 live / <= 3 allocated — the chained driver must retire instance
# k-2's session as instance k starts, not accumulate channels). Finally
# checks that a lane with more than f faulty nodes and a malformed spec are
# both rejected with exit 2.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${LBC_SERVE_OUT:-target/lbc-serve-smoke}"
SPEC="examples/campaigns/serve_smoke.json"
rm -rf "$OUT"
mkdir -p "$OUT/w1" "$OUT/w2" "$OUT/w8"

cargo build --release --bin lbc

./target/release/lbc serve "$SPEC" --strict --workers 1 --out "$OUT/w1"
./target/release/lbc serve "$SPEC" --strict --workers 2 --out "$OUT/w2" --quiet
./target/release/lbc serve "$SPEC" --strict --workers 8 --out "$OUT/w8" --quiet
cmp "$OUT/w1/serve-smoke.serve.report.json" "$OUT/w2/serve-smoke.serve.report.json"
cmp "$OUT/w1/serve-smoke.serve.report.json" "$OUT/w8/serve-smoke.serve.report.json"

# Re-assert the verdicts from the report itself, independent of the CLI's
# exit-code paths: all instances correct, channel occupancy bounded.
python3 - "$OUT/w1/serve-smoke.serve.report.json" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
assert report["all_correct"] is True, "report not all-correct"
assert report["channels_bounded"] is True, "report channel occupancy unbounded"
instances = 0
for lane in report["lanes"]:
    chain = lane["chain"]
    assert chain["max_live_per_tag"] <= 2, f"lane {lane['index']}: {chain['max_live_per_tag']} live sessions per tag"
    assert chain["max_allocated_channels"] <= 3 * max(chain["live_tags"], 1), \
        f"lane {lane['index']}: {chain['max_allocated_channels']} allocated channels"
    for record in lane["instances"]:
        assert record["correct"] is True, f"lane {lane['index']}: incorrect instance"
        instances += 1
expected = report["instances"] * len(report["lanes"])
assert instances == expected, f"{instances} instance records, expected {expected}"
print(f"report verdicts ok: {instances} instances, channels bounded in every lane")
EOF

# Negative cases: a spec outside the model or not a spec at all must be
# rejected before any instance runs, with exit 2 and a named error.
expect_exit_2() {
  local label="$1" spec="$2" pattern="$3"
  local code=0
  ./target/release/lbc serve "$spec" --strict --quiet --out "$OUT/rejected" \
    2> "$OUT/$label.stderr" || code=$?
  if [ "$code" -ne 2 ]; then
    echo "serve on $label spec exited $code, want 2" >&2
    cat "$OUT/$label.stderr" >&2
    exit 1
  fi
  if ! grep -q -- "$pattern" "$OUT/$label.stderr"; then
    echo "serve on $label spec: error does not mention '$pattern'" >&2
    cat "$OUT/$label.stderr" >&2
    exit 1
  fi
}

cat > "$OUT/over_f.json" <<'EOF'
{
  "name": "serve-over-f",
  "seed": 1,
  "sweeps": [],
  "serve": {
    "instances": 3,
    "lanes": [
      {
        "family": {"kind": "fig1b"},
        "n": 9,
        "f": 1,
        "algorithm": "async",
        "regime": "sync",
        "strategy": "silent",
        "faulty": [3, 4, 5],
        "inputs": {"policy": "random", "count": 4}
      }
    ]
  }
}
EOF
expect_exit_2 over_f "$OUT/over_f.json" "more than f = 1"

printf '{"name": "serve-malformed", "serve": {' > "$OUT/malformed.json"
expect_exit_2 malformed "$OUT/malformed.json" "spec error"
if [ -e "$OUT/rejected" ]; then
  echo "a rejected serve spec wrote output" >&2
  exit 1
fi
echo "rejected specs ok: more than f faulty nodes and malformed JSON exit 2"

echo "serve smoke OK: strict verdicts + byte-identical reports at 1/2/8 workers + bounded channels + rejected specs"
