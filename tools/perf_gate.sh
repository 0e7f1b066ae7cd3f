#!/usr/bin/env bash
# perf_gate.sh — regression gate over the committed perf trajectory.
#
# Compares a fresh quick run of the perf-tracked benches against the
# committed snapshots in the repo root:
#
#   BENCH_oltp.json      oltp_ycsb + oltp_warehouse  (throughput ratio)
#   BENCH_crashsim.json  micro_crashsim              (p50 time ratio)
#   BENCH_stm.json       micro_stm_ops               (per-op time ratio)
#
# Throughput entries (name ending /tput) fail when the fresh run achieves
# less than (1 - ADTM_PERF_BAND) of the committed ops/ns — the default
# band of 0.45 tolerates scheduler noise but a planted slowdown lands
# outside it (ADTM_OLTP_SPIN_NS, spun inside every transaction attempt,
# fails every tput row in both passes at the value DESIGN.md gives).
# Time entries fail when fresh exceeds ADTM_PERF_BAND_TIME x committed
# (default 4.0 — recovery timings are noisy at micro scale). The quick
# pass runs micro_stm_ops with a short minimum time; its rows are
# per-iteration times, comparable with the committed ones.
# Only names present in BOTH the committed snapshot and the fresh quick
# run are compared; the committed file may hold more (full-matrix)
# entries. When a committed file repeats a key, the last occurrence
# wins.
#
# A failing comparison re-measures once before judging — one bad
# scheduling quantum should not fail a commit.
#
# Modes (ADTM_PERF_GATE): enforce (default) fails the gate on regression;
# report prints the comparison but always exits 0 (what tools/ci.sh uses —
# CI machines are not the machines the snapshots were taken on).
# Missing snapshots or bench binaries exit 77 (ctest SKIP).
#
# Usage:
#   tools/perf_gate.sh [build-dir]       # run the gate (default ./build)
#   tools/perf_gate.sh --update [dir]    # refresh all three snapshots with
#                                        # the per-row median of 3 runs
#                                        # (full OLTP matrix), then exit
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${ADTM_PERF_GATE:-enforce}"
BAND="${ADTM_PERF_BAND:-0.45}"
BAND_TIME="${ADTM_PERF_BAND_TIME:-4.0}"

UPDATE=0
if [ "${1:-}" = "--update" ]; then
  UPDATE=1
  shift
fi
BUILD="${1:-$ROOT/build}"
# measure() changes directory; the build path must survive that.
case "$BUILD" in
  /*) ;;
  *) BUILD="$(cd "$BUILD" 2>/dev/null && pwd)" || {
       echo "perf_gate: build dir not found — SKIP"; exit 77; } ;;
esac

YCSB="$BUILD/bench/oltp_ycsb"
WH="$BUILD/bench/oltp_warehouse"
CRASHSIM="$BUILD/bench/micro_crashsim"
STM="$BUILD/bench/micro_stm_ops"

for bin in "$YCSB" "$WH" "$CRASHSIM" "$STM"; do
  if [ ! -x "$bin" ]; then
    echo "perf_gate: missing bench binary $bin (build first) — SKIP"
    exit 77
  fi
done

TMP="$(mktemp -d "${TMPDIR:-/tmp}/adtm-perf-gate.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT

# Emit "name|label|real_ns|iterations" per entry line of an adtm-bench/v1
# file (BenchReport writes one entry per line, so line-wise parsing is
# exact for these files).
parse() {
  awk -F'"' '/"name":/ {
    real = $11; iters = $13
    gsub(/[^0-9.eE+-]/, "", real)
    gsub(/[^0-9]/, "", iters)
    print $4 "|" $8 "|" real "|" iters
  }' "$1"
}

# median_report <key_iters> <by_time> <run files...>: one adtm-bench/v1
# file that holds, per (binary, name, label) entry, the entry line of the
# run whose iterations/real_ns is the median — the rate of a tput row, the
# count of an abort row, the inverse of a per-op or percentile time. With
# key_iters=1 the iteration count joins the key (crashsim repeats each
# name and label once per record count). With by_time=1 the median is
# taken over real_ns alone (google-benchmark rows, whose iteration count
# varies from run to run and is not part of the measurement). A run that
# did not emit an entry (an abort cause that did not occur) counts as
# zero, and an entry whose median is zero is left out, as a single run
# leaves it out. Entries keep the order in which they first appear.
median_report() {
  local key_iters="$1" by_time="$2"
  shift 2
  awk -F'"' -v runs="$#" -v key_iters="$key_iters" -v by_time="$by_time" '
    /"binary":/ {
      bin = $4
      if (!(bin in seen)) { seen[bin] = 1; bins[++nbin] = bin }
      next
    }
    /"name":/ {
      line = $0; sub(/,$/, "", line)
      real = $11; iters = $13
      gsub(/[^0-9.eE+-]/, "", real)
      gsub(/[^0-9]/, "", iters)
      k = bin SUBSEP $4 SUBSEP $8
      if (key_iters) k = k SUBSEP iters
      if (!(k in count)) order[bin, ++nkey[bin]] = k
      c = ++count[k]
      rate[k, c] = real > 0 ? (by_time ? 1 / real : iters / real) : 0
      text[k, c] = line
    }
    END {
      mid = int((runs + 1) / 2)
      print "{\"schema\":\"adtm-bench/v1\",\"runs\":["
      for (b = 1; b <= nbin; b++) {
        bin = bins[b]
        print "{\"binary\":\"" bin "\",\"entries\":["
        sep = ""
        for (i = 1; i <= nkey[bin]; i++) {
          k = order[bin, i]; c = count[k]; missing = runs - c
          if (mid <= missing) continue
          for (x = 1; x <= c; x++) idx[x] = x
          for (x = 2; x <= c; x++)
            for (y = x; y > 1 && rate[k, idx[y]] < rate[k, idx[y - 1]]; y--) {
              t = idx[y]; idx[y] = idx[y - 1]; idx[y - 1] = t
            }
          printf("%s%s", sep, text[k, idx[mid - missing]])
          sep = ",\n"
        }
        print ""
        print (b < nbin ? "]}," : "]}")
      }
      print "]}"
    }' "$@"
}

# Committed snapshots: the trajectory the repo publishes (the full OLTP
# matrix, the crashsim and STM micro benches), each row the
# median of UPDATE_RUNS runs (a single run is one window per row and
# lands anywhere in the host's spread). Refreshing is deliberate (same
# machine, quiet load): tools/perf_gate.sh --update.
UPDATE_RUNS=3
if [ "$UPDATE" = 1 ]; then
  echo "perf_gate: regenerating BENCH_oltp.json, BENCH_crashsim.json" \
       "and BENCH_stm.json in $ROOT" \
       "(median of $UPDATE_RUNS runs)..."
  for i in $(seq "$UPDATE_RUNS"); do
    ADTM_BENCH_OUT="$TMP/oltp.$i.json" ADTM_OLTP_CONTAINER=both \
      "$YCSB" > /dev/null || exit 1
    ADTM_BENCH_OUT="$TMP/oltp.$i.json" "$WH" > /dev/null || exit 1
    (cd "$TMP" && ADTM_BENCH_OUT="$TMP/crashsim.$i.json" "$CRASHSIM" \
      > /dev/null) || exit 1
    (cd "$TMP" && ADTM_BENCH_OUT="$TMP/stm.$i.json" "$STM" > /dev/null) \
      || exit 1
    echo "perf_gate: run $i/$UPDATE_RUNS done"
  done
  median_report 0 0 "$TMP"/oltp.*.json > "$TMP/oltp.median" || exit 1
  median_report 1 0 "$TMP"/crashsim.*.json > "$TMP/crashsim.median" || exit 1
  median_report 0 1 "$TMP"/stm.*.json > "$TMP/stm.median" || exit 1
  for name in oltp crashsim stm; do
    mv "$TMP/$name.median" "$ROOT/BENCH_$name.json" || exit 1
  done
  echo "perf_gate: snapshots refreshed"
  exit 0
fi

for snap in BENCH_oltp.json BENCH_crashsim.json BENCH_stm.json; do
  if [ ! -f "$ROOT/$snap" ]; then
    echo "perf_gate: no committed $snap — SKIP"
    exit 77
  fi
done

# One quick measurement pass into $TMP. Short but same key space as the
# committed matrix so per-op costs are comparable.
measure() {
  rm -f "$TMP/oltp.json" "$TMP/crashsim.json" "$TMP/stm.json"
  ADTM_BENCH_OUT="$TMP/oltp.json" ADTM_OLTP_THREADS="${ADTM_OLTP_THREADS:-2}" \
    ADTM_OLTP_DURATION_MS="${ADTM_OLTP_DURATION_MS:-120}" \
    ADTM_OLTP_CONTAINER=both "$YCSB" > /dev/null || return 1
  ADTM_BENCH_OUT="$TMP/oltp.json" ADTM_OLTP_THREADS="${ADTM_OLTP_THREADS:-2}" \
    ADTM_OLTP_DURATION_MS="${ADTM_OLTP_DURATION_MS:-120}" \
    "$WH" > /dev/null || return 1
  (cd "$TMP" && ADTM_BENCH_OUT="$TMP/crashsim.json" "$CRASHSIM" > /dev/null) \
    || return 1
  (cd "$TMP" && ADTM_BENCH_OUT="$TMP/stm.json" "$STM" \
    --benchmark_min_time=0.05 > /dev/null) || return 1
  return 0
}

# compare <committed> <fresh> <kind>
#   kind=tput : name|label keys ending in /tput, fresh ops/ns must be
#               >= (1-BAND) x committed
#   kind=stm, crashsim : per-op fresh real_ns must be
#               <= BAND_TIME x committed; crashsim keys include iterations
#               (the record count) and only p50 labels are gated (p99 of
#               15 runs is pure noise)
compare() {
  local committed="$1" fresh="$2" kind="$3"
  { parse "$committed" | sed 's/^/C|/'; parse "$fresh" | sed 's/^/F|/'; } |
  awk -F'|' -v kind="$kind" -v band="$BAND" -v band_time="$BAND_TIME" '
    function key(name, label, iters) {
      return kind == "crashsim" ? name "|" label "|" iters : name "|" label
    }
    {
      side = $1; name = $2; label = $3; real = $4; iters = $5
      if (kind == "tput" && name !~ /\/tput$/) next
      if (kind == "crashsim" && label != "p50") next
      k = key(name, label, iters)
      if (side == "C") { creal[k] = real; citer[k] = iters }  # last wins
      else            { freal[k] = real; fiter[k] = iters }
    }
    END {
      bad = 0; n = 0
      for (k in freal) {
        if (!(k in creal)) continue
        n++
        if (kind == "tput") {
          ctput = citer[k] / creal[k]; ftput = fiter[k] / freal[k]
          ratio = ftput / ctput
          status = ratio >= 1 - band ? "ok  " : "FAIL"
          if (status == "FAIL") bad++
          printf("  %s %-28s committed %10.0f ops/s  fresh %10.0f ops/s  (x%.2f)\n",
                 status, k, ctput * 1e9, ftput * 1e9, ratio)
        } else {
          cns = creal[k]; fns = freal[k]
          ratio = cns > 0 ? fns / cns : 1
          status = ratio <= band_time ? "ok  " : "FAIL"
          if (status == "FAIL") bad++
          printf("  %s %-34s committed %12.0f ns  fresh %12.0f ns  (x%.2f)\n",
                 status, k, cns, fns, ratio)
        }
      }
      if (n == 0) { print "  (no comparable entries)"; exit 2 }
      exit bad > 0 ? 1 : 0
    }'
}

run_compare() {
  local rc=0
  echo "perf_gate: throughput (band ${BAND}) vs BENCH_oltp.json"
  compare "$ROOT/BENCH_oltp.json" "$TMP/oltp.json" tput || rc=1
  echo "perf_gate: recovery p50 (band x${BAND_TIME}) vs BENCH_crashsim.json"
  compare "$ROOT/BENCH_crashsim.json" "$TMP/crashsim.json" crashsim || rc=1
  echo "perf_gate: per-op time (band x${BAND_TIME}) vs BENCH_stm.json"
  compare "$ROOT/BENCH_stm.json" "$TMP/stm.json" stm || rc=1
  return $rc
}

echo "perf_gate: quick measurement pass (mode: $MODE)"
measure || { echo "perf_gate: bench run failed"; exit 1; }
if ! run_compare; then
  echo "perf_gate: regression detected — re-measuring once to rule out noise"
  measure || { echo "perf_gate: bench run failed"; exit 1; }
  if ! run_compare; then
    if [ "$MODE" = "report" ]; then
      echo "perf_gate: REGRESSION (report-only mode; not failing)"
      exit 0
    fi
    echo "perf_gate: REGRESSION — fresh run outside the noise band."
    echo "perf_gate: if intentional, refresh with tools/perf_gate.sh --update"
    exit 1
  fi
fi
echo "perf_gate: OK"
exit 0
