#!/usr/bin/env bash
# Threads-matrix smoke for fleet mode: runs the same fleet at several
# --threads values and fails unless every aggregate JSON — and every
# decision-ledger JSONL — is byte-identical to the T=1 document.  Meant
# for the sanitizer lanes —
#
#   cmake -B build-tsan -S . -DEVM_SANITIZE=thread
#   cmake --build build-tsan -j
#   tools/fleet-smoke.sh build-tsan
#
# — where it drives the real evm_cli binary (tenant threads, shard
# checkpoints, global-store folds, per-tenant ledgers) through TSan, but
# it is just as useful as a quick local determinism check on a plain
# build.
#
#   tools/fleet-smoke.sh [BUILD_DIR] [THREADS...]
#
#   BUILD_DIR  CMake build tree holding examples/evm_cli (default: build)
#   THREADS    thread counts to sweep (default: 1 2 4 8)
set -euo pipefail

BUILD_DIR="${1:-build}"
if [ "$#" -gt 0 ]; then
  shift
fi
THREADS=("$@")
if [ "${#THREADS[@]}" -eq 0 ]; then
  THREADS=(1 2 4 8)
fi

CLI="$BUILD_DIR/examples/evm_cli"
if [ ! -x "$CLI" ]; then
  echo "error: $CLI not found (build first: cmake --build \"$BUILD_DIR\")" >&2
  exit 2
fi

WORK="$(mktemp -d /tmp/fleet-smoke.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

BASELINE=""
BASELINE_DECISIONS=""
for T in "${THREADS[@]}"; do
  OUT="$WORK/t$T.json"
  DECISIONS="$WORK/t$T.decisions.jsonl"
  # Fresh shard dir per thread count: launch-vs-launch, not warm-start.
  # Fail the whole matrix on the first broken cell, with its stderr.
  if ! "$CLI" --fleet 6 --threads "$T" --fleet-runs 5 --merge-every 2 \
      --shard-dir "$WORK/shards-t$T" --seed 20090301 \
      --decisions-out "$DECISIONS" \
      > "$OUT" 2> "$WORK/t$T.err"; then
    echo "FAIL: evm_cli exited nonzero at T=$T" >&2
    cat "$WORK/t$T.err" >&2
    exit 1
  fi
  if [ -z "$BASELINE" ]; then
    BASELINE="$OUT"
    BASELINE_DECISIONS="$DECISIONS"
    echo "T=$T: baseline ($(wc -c < "$OUT") bytes aggregate," \
      "$(wc -c < "$DECISIONS") bytes ledger)"
    continue
  fi
  if ! cmp -s "$BASELINE" "$OUT"; then
    echo "FAIL: aggregate JSON at T=$T differs from T=${THREADS[0]}" >&2
    cmp "$BASELINE" "$OUT" >&2 || true
    exit 1
  fi
  if ! cmp -s "$BASELINE_DECISIONS" "$DECISIONS"; then
    echo "FAIL: decision ledger at T=$T differs from T=${THREADS[0]}" >&2
    cmp "$BASELINE_DECISIONS" "$DECISIONS" >&2 || true
    exit 1
  fi
  echo "T=$T: byte-identical (aggregate + ledger)"
done
echo "fleet threads-matrix smoke: OK (${THREADS[*]})"

# Daemon smoke cell: boot the real evm-served, drive it with evm_cli
# --connect, SIGTERM it, and require a clean graceful drain — exit 0 and a
# final global store that evm-store validate accepts.  Under the TSan lane
# this exercises the whole serving stack (reader threads, batcher, lanes,
# gateway folds) against the race detector.
#
# The cell boots the daemon twice with the same inputs, and the two
# decision ledgers and client outputs must be byte-identical: a served
# prediction depends only on its inputs, never on thread scheduling in the
# daemon's batcher and lanes.
SERVED="$BUILD_DIR/tools/evm-served"
STORE_TOOL="$BUILD_DIR/tools/evm-store"
if [ ! -x "$SERVED" ] || [ ! -x "$STORE_TOOL" ]; then
  echo "note: evm-served or evm-store not built, skipping daemon smoke"
  exit 0
fi

daemon_cell() {  # $1 = boot tag (names the outputs)
  local BOOT="$1"
  local SOCK="$WORK/served-$BOOT.sock"
  local SERVE_DIR="$WORK/served-store-$BOOT"
  "$SERVED" --socket "$SOCK" --store-dir "$SERVE_DIR" \
    --batch 2 --deadline-us 500 \
    --decisions-out "$WORK/served-$BOOT.decisions.jsonl" \
    > "$WORK/served-$BOOT.log" 2>&1 &
  local SERVED_PID=$!

  # Readiness signal: the socket file exists once start() returns.
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    kill -0 "$SERVED_PID" 2>/dev/null || {
      echo "FAIL: evm-served ($BOOT) died before binding $SOCK" >&2
      cat "$WORK/served-$BOOT.log" >&2
      exit 1
    }
    sleep 0.1
  done
  [ -S "$SOCK" ] || { echo "FAIL: $SOCK never appeared" >&2; exit 1; }

  if ! "$CLI" --connect "$SOCK" --app route --input-order 0,1,2,3,0,1 \
      > "$WORK/served-$BOOT.client.txt" \
      2> "$WORK/served-$BOOT.client.err"; then
    echo "FAIL: evm_cli --connect against evm-served ($BOOT) exited" \
      "nonzero" >&2
    cat "$WORK/served-$BOOT.client.err" >&2
    kill -9 "$SERVED_PID" 2>/dev/null || true
    exit 1
  fi

  # Graceful drain: SIGTERM must complete in-flight work, fold the final
  # checkpoint, and exit 0.
  kill -TERM "$SERVED_PID"
  local SERVED_RC=0
  wait "$SERVED_PID" || SERVED_RC=$?
  if [ "$SERVED_RC" -ne 0 ]; then
    echo "FAIL: evm-served ($BOOT) drain exited $SERVED_RC" >&2
    cat "$WORK/served-$BOOT.log" >&2
    exit 1
  fi

  # The drain-time fold's global store must be clean and canonical.
  # (Gateway filenames sanitize lane ids: app "route" -> global-route.store.)
  if ! "$STORE_TOOL" validate "$SERVE_DIR/global-route.store" \
      > "$WORK/served-$BOOT.validate.txt"; then
    echo "FAIL: evm-store validate rejects the $BOOT drain checkpoint" >&2
    cat "$WORK/served-$BOOT.validate.txt" >&2
    exit 1
  fi
  echo "daemon smoke ($BOOT): OK" \
    "($(tail -n1 "$WORK/served-$BOOT.validate.txt"))"
}

daemon_cell boot1
daemon_cell boot2

if ! cmp -s "$WORK/served-boot1.decisions.jsonl" \
    "$WORK/served-boot2.decisions.jsonl"; then
  echo "FAIL: served decision ledgers differ between two daemon boots" >&2
  cmp "$WORK/served-boot1.decisions.jsonl" \
    "$WORK/served-boot2.decisions.jsonl" >&2 || true
  exit 1
fi
if ! cmp -s "$WORK/served-boot1.client.txt" \
    "$WORK/served-boot2.client.txt"; then
  echo "FAIL: served client output differs between two daemon boots" >&2
  exit 1
fi
echo "daemon determinism cell: ledgers and client output byte-identical" \
  "across two boots"
