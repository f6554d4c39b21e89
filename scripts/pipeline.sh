#!/bin/sh
# Synthetic end-to-end pipeline: simulate noisy workers, aggregate their
# votes, and score the consensus against the generated ground truth.
# Check that the console script exits 1 with an error line when its result
# cannot be written (stdout on a full device), and 2 for a mistyped flag.
# Check that the annotations in reverse, with some labels out of vocabulary,
# read column-wise, aggregate to the same files as a CRLF copy of them, read
# row by row.
# Check that the installed package runs --help with no package module but
# its command-line one, and --help and evaluate without numpy; evaluate
# loads the JSONL reader but not the records of storage, and aggregate does
# not load numpy.ma.
# Then, offline: extract labels from mock providers whose answers need the
# response rules and a synonym, one of them not concurrency-safe and one
# failing its first request, check the records' order, aggregate them, and
# check the consensus, and that aggregate votes on so small a file without
# numpy.
# Then, check that a provider that gives up is reported on stderr as a
# warning, while extract still exits 0 with the other provider's records.
# Then, check that a mistyped provider option (named by its entry number), a
# repeated worker id, and simulate's --out and --truth-out on one file, exit 2
# and write nothing.
# Last, extract over HTTP from a local stub chat-completions server.
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

# The console script flushes stdout itself before it exits without the
# interpreter's teardown: a result that cannot be written is an I/O failure,
# exit 1 with an error line, not Python's exit 120. Unbuffered, the write
# itself would fail inside the command, so the check clears PYTHONUNBUFFERED.
if [ -e /dev/full ]; then
  env -u PYTHONUNBUFFERED labelvote evaluate --predictions "$out/predictions.jsonl" --truth "$out/truth.jsonl" > /dev/full 2> "$out/full.err" && status=0 || status=$?
  if [ "$status" -ne 1 ] || ! grep -q '^error: ' "$out/full.err"; then
    echo "pipeline: evaluate onto a full device exited $status, not 1 with an error line: $(cat "$out/full.err")" >&2
    exit 1
  fi
  # An input error (exit 2) whose error line cannot be written to stderr is an
  # I/O failure as well: exit 1, not 120.
  env -u PYTHONUNBUFFERED labelvote evaluate --predictions "$out/predictions.jsonl" --truth "$out/workers.json" 2> /dev/full && status=0 || status=$?
  if [ "$status" -ne 1 ]; then
    echo "pipeline: evaluate with an input error and stderr on a full device exited $status, not 1" >&2
    exit 1
  fi
fi
# A mistyped flag is a usage error: exit 2.
labelvote evaluate --predictions "$out/predictions.jsonl" --truht "$out/truth.jsonl" 2> "$out/mistyped.err" && status=0 || status=$?
if [ "$status" -ne 2 ]; then
  echo "pipeline: evaluate with a mistyped flag exited $status, not 2: $(cat "$out/mistyped.err")" >&2
  exit 1
fi

# aggregate reads a canonical file column-wise, and a CRLF copy of it row by
# row: both must write the same predictions and weights. The lines go in
# reverse, so that no id's order by value is its order of first appearance.
# Every 7th line, and every line of items item-000000 to item-000049, gets the
# out-of-vocabulary label "unknown": both readers drop those rows, and some
# ids appear only on dropped rows.
tac "$out/annotations.jsonl" | awk '
  NR % 7 == 0 || /"item_id": "item-0000[0-4][0-9]"/ { sub(/"raw_label": "[^"]*"/, "\"raw_label\": \"unknown\"") }
  { print }
' > "$out/reversed.jsonl"
awk '{ printf "%s\r\n", $0 }' "$out/reversed.jsonl" > "$out/reversed-crlf.jsonl"
for copy in reversed reversed-crlf; do
  labelvote aggregate --input "$out/$copy.jsonl" --attribute attr --labels low,mid,high --out "$out/$copy-predictions.jsonl" --weights-out "$out/$copy-weights.json"
done
for file in predictions.jsonl weights.json; do
  cmp "$out/reversed-$file" "$out/reversed-crlf-$file" || {
    echo "pipeline: the row path and the column path wrote different $file" >&2
    exit 1
  }
done

# Each subcommand imports its own modules when it runs: --help needs none
# but labelvote.cli, and only simulate and aggregate use numpy, which takes
# longer to import than all of --help. The import log must name
# labelvote.cli, so that the check cannot pass on a run that imported nothing.
# Usage: imports_none_of <module pattern> <labelvote arguments>...
imports_none_of() {
  modules=$1
  shift
  python3 -X importtime -m labelvote "$@" > /dev/null 2> "$out/importtime.txt"
  grep -q '| *labelvote\.cli$' "$out/importtime.txt" || {
    echo "pipeline: no import log for labelvote $1" >&2
    exit 1
  }
  if grep -E "\\| *($modules)\$" "$out/importtime.txt" >&2; then
    echo "pipeline: labelvote $1 imported the module(s) above" >&2
    exit 1
  fi
}
imports_none_of 'numpy|labelvote\.(jsonl|storage|extract|providers)' --help
imports_none_of 'numpy|labelvote\.storage' evaluate --predictions "$out/predictions.jsonl" --truth "$out/truth.jsonl"
# aggregate reads the 20k annotations column-wise in numpy. np.unique with
# return_index or return_inverse takes the sort path and loads nothing more;
# a flag-less call loads numpy.ma on numpy 2.4.6, 10-15 ms of a run that
# uses nothing else of it.
imports_none_of 'numpy\.ma' aggregate --input "$out/annotations.jsonl" --attribute attr --labels low,mid,high --out "$out/importtime-predictions.jsonl"

cat > "$out/products.jsonl" <<'EOF'
{"item_id": "sku-1", "title": "Garanimals Toddler Girl Short Sleeve Graphic T-Shirt"}
{"item_id": "sku-2", "title": "Mens Classic Crew Socks, 6-Pack"}
EOF
cat > "$out/providers.json" <<'EOF'
[
  {"kind": "mock", "provider_id": "m1", "responses": {"Garanimals": "Female.", "Socks": "male"}, "fail_times": 1},
  {"kind": "mock", "provider_id": "m2", "responses": {"Garanimals": "\"female\"", "Socks": "Male!"}, "concurrency_safe": false},
  {"kind": "mock", "provider_id": "m3", "responses": {"Garanimals": "woman", "Socks": "'male'"}}
]
EOF
echo '{"woman": "female"}' > "$out/synonyms.json"

schema="--attribute gender --labels male,female,unisex"
labelvote extract --products "$out/products.jsonl" $schema --providers "$out/providers.json" --synonyms "$out/synonyms.json" --max-in-flight 2 --out "$out/extracted.jsonl"
# One two-thread pool runs every request; m2 has one lane, and m1's first
# request fails and is retried after its backoff. Records stay provider-major.
order=$(python3 -c 'import json, sys; print(" ".join(json.loads(l)["annotator_id"] for l in open(sys.argv[1])))' "$out/extracted.jsonl")
[ "$order" = "m1 m1 m2 m2 m3 m3" ] || {
  echo "pipeline: extract records are not in provider-major order: $order" >&2
  exit 1
}
labelvote aggregate --input "$out/extracted.jsonl" $schema --out "$out/extracted-predictions.jsonl"
grep -qF '{"item_id": "sku-1", "attribute": "gender", "label": "female"}' "$out/extracted-predictions.jsonl" || {
  echo "pipeline: extract leg did not predict female for sku-1" >&2
  exit 1
}
# A file whose size times --max-iter is within ensemble.PLAIN_BUDGET is voted
# on in plain Python: loading numpy would cost more than the whole vote.
imports_none_of 'numpy' aggregate --input "$out/extracted.jsonl" $schema --out "$out/importtime-extracted-predictions.jsonl"

# A provider that fails every request costs only its own records: extract
# exits 0, and stderr names the provider that gave up, as a warning.
cat > "$out/failing-providers.json" <<'EOF'
[
  {"kind": "mock", "provider_id": "down", "default_response": "male", "fail_times": 1000, "max_retries": 1},
  {"kind": "mock", "provider_id": "up", "default_response": "male"}
]
EOF
labelvote extract --products "$out/products.jsonl" $schema --providers "$out/failing-providers.json" --out "$out/failing-extracted.jsonl" 2> "$out/failing-providers.err" || {
  echo "pipeline: extract with one failing provider did not exit 0: $(cat "$out/failing-providers.err")" >&2
  exit 1
}
grep -qF 'warning: provider down: giving up after 1 attempt(s)' "$out/failing-providers.err" || {
  echo "pipeline: extract did not warn about the provider that gave up: $(cat "$out/failing-providers.err")" >&2
  exit 1
}

# A mistyped provider option is invalid input: exit 2 at load, naming the
# file and the entry, and no output file.
echo '[{"kind": "mock", "provider_id": "m1", "delay": "x"}]' > "$out/bad-providers.json"
rm -f "$out/bad-extracted.jsonl"
labelvote extract --products "$out/products.jsonl" $schema --providers "$out/bad-providers.json" --out "$out/bad-extracted.jsonl" 2> "$out/bad-providers.err" && status=0 || status=$?
if [ "$status" -ne 2 ] || [ -e "$out/bad-extracted.jsonl" ]; then
  echo "pipeline: extract with a mistyped provider option exited $status, not 2, or wrote output" >&2
  exit 1
fi
grep -qF 'bad-providers.json: provider #1: ' "$out/bad-providers.err" || {
  echo "pipeline: extract did not name the bad provider entry: $(cat "$out/bad-providers.err")" >&2
  exit 1
}

# A repeated worker id is invalid input too: exit 2, naming the entry, no file.
cat > "$out/repeated-workers.json" <<'EOF'
[
  {"worker_id": "w1", "accuracy": 0.9},
  {"worker_id": "w1", "accuracy": 0.8}
]
EOF
rm -f "$out/repeated.jsonl"
labelvote simulate --items 10 --labels low,mid,high --workers "$out/repeated-workers.json" --seed 1 --out "$out/repeated.jsonl" 2> "$out/repeated-workers.err" && status=0 || status=$?
if [ "$status" -ne 2 ] || [ -e "$out/repeated.jsonl" ]; then
  echo "pipeline: simulate with a repeated worker id exited $status, not 2, or wrote output" >&2
  exit 1
fi
grep -qF 'repeated-workers.json: worker #2: ' "$out/repeated-workers.err" || {
  echo "pipeline: simulate did not name the repeated worker entry: $(cat "$out/repeated-workers.err")" >&2
  exit 1
}

# Two outputs of one run on one file are invalid input too: exit 2, no file.
rm -f "$out/same.jsonl"
labelvote simulate --items 10 --labels low,mid,high --workers "$out/workers.json" --seed 1 --out "$out/same.jsonl" --truth-out "$out/same.jsonl" && status=0 || status=$?
if [ "$status" -ne 2 ] || [ -e "$out/same.jsonl" ]; then
  echo "pipeline: simulate with --out and --truth-out on one file exited $status, not 2, or wrote output" >&2
  exit 1
fi

# The HTTP leg: a standard-library stub server on 127.0.0.1 answers like a
# chat-completions endpoint, and only to the right bearer key. It writes
# its port to a file once it listens.
rm -f "$out/stub-port"
python3 - "$out/stub-port" <<'EOF' &
import json, os, sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

class Chat(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.headers.get("Authorization") != "Bearer stub-key":
            self.send_error(401)
            return
        answer = "female" if "Garanimals" in body["messages"][0]["content"] else "male"
        reply = json.dumps({"choices": [{"message": {"content": answer}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass

server = ThreadingHTTPServer(("127.0.0.1", 0), Chat)
with open(sys.argv[1] + ".tmp", "w") as fh:
    fh.write(str(server.server_port))
os.replace(sys.argv[1] + ".tmp", sys.argv[1])
server.serve_forever()
EOF
stub=$!
trap 'kill "$stub" 2>/dev/null' EXIT
tries=0
until [ -s "$out/stub-port" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "pipeline: stub server did not start within 10 s" >&2
    exit 1
  fi
  sleep 0.1
done
port=$(cat "$out/stub-port")
cat > "$out/http-providers.json" <<EOF
[{"provider_id": "stub", "endpoint": "http://127.0.0.1:$port/v1/chat/completions", "model_name": "stub-model"}]
EOF
export LLME_STUB_API_KEY=stub-key
# Bypass any proxy the environment names for the local server.
export no_proxy=127.0.0.1
labelvote extract --products "$out/products.jsonl" $schema --providers "$out/http-providers.json" --out "$out/http-extracted.jsonl"
labelvote aggregate --input "$out/http-extracted.jsonl" $schema --out "$out/http-predictions.jsonl"
grep -qF '{"item_id": "sku-1", "attribute": "gender", "label": "female"}' "$out/http-predictions.jsonl" || {
  echo "pipeline: HTTP leg did not predict female for sku-1" >&2
  exit 1
}
