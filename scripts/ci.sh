#!/usr/bin/env bash
# Offline CI for the mehpt workspace: format, build, docs, test, and a
# smoke run of the mehpt-lab experiment runner. No network access required
# — the workspace has no crates-io dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo doc --no-deps (deny warnings)"
# --lib: the mehpt-lab *binary* and the mehpt-lab *library* would collide
# on target/doc/mehpt_lab; library docs are the ones that matter.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --quiet

echo "==> cargo test -q --workspace"
# --workspace: bare `cargo test` runs only the root package's tests.
cargo test -q --workspace

echo "==> cargo bench --workspace --no-run (every bench target builds)"
# `cargo test` does not compile crates/bench/benches/*, so an engine API
# change could otherwise break a bench target unnoticed.
cargo bench --workspace --no-run --offline --quiet

echo "==> speedbench contract tests (output digests, replay fidelity)"
cargo test --offline --manifest-path speedbench/Cargo.toml

echo "==> speedbench: every benchmark cell's simulated output is unchanged"
# A tiny --seconds runs the minimum 3 passes (speedbench rejects 0). Each
# pass checks every cell's digest against speedbench/expected.txt, and
# speedbench exits 1 on any mismatch. Its stderr names the failing cells,
# so it is kept and printed on failure.
sb_log=$(mktemp)
for w in gups_hpt mummer_thp paper_quick; do
    if ! out=$(cargo run --release --offline --quiet --manifest-path speedbench/Cargo.toml -- \
        --workload "$w" --seconds 0.001 --trace 0 2>"$sb_log") ||
        ! grep -q '"correct": true' <<<"$out"; then
        cat "$sb_log" >&2
        printf '%s\n' "$out" >&2
        echo "speedbench $w: simulated output differs from speedbench/expected.txt" >&2
        exit 1
    fi
done
rm -f "$sb_log"

echo "==> mehpt-lab table1 --jobs 2 --quick (smoke)"
./target/release/mehpt-lab table1 --jobs 2 --quick --out target/lab-ci >/dev/null

echo "==> determinism: --jobs 1 and --jobs 4 must emit identical reports"
./target/release/mehpt-lab run --preset fig7 --seeds 3 --jobs 1 --quick \
    --max-accesses 20000 --out target/lab-ci-j1 >/dev/null 2>&1
./target/release/mehpt-lab run --preset fig7 --seeds 3 --jobs 4 --quick \
    --max-accesses 20000 --out target/lab-ci-j4 >/dev/null 2>&1
./target/release/mehpt-lab diff \
    target/lab-ci-j1/fig7/report.json target/lab-ci-j4/fig7/report.json
cmp target/lab-ci-j1/fig7/report.csv target/lab-ci-j4/fig7/report.csv

# A faulted sweep exits 1 (failed cells in the report) — that exact code,
# not 0 (fault silently skipped) and not ≥2 (crash), is the contract.
expect_failed_cells() {
    local status=0
    "$@" >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
        echo "expected exit 1 (failed cells) from: $*  (got $status)" >&2
        exit 1
    fi
}

echo "==> fault injection: panicking cells must not break determinism"
expect_failed_cells ./target/release/mehpt-lab fig7 --fault 'panic:@2' \
    --seeds 2 --jobs 4 --quick --max-accesses 20000 --out target/lab-ci-fault-a
expect_failed_cells ./target/release/mehpt-lab fig7 --fault 'panic:@2' \
    --seeds 2 --jobs 1 --quick --max-accesses 20000 --out target/lab-ci-fault-b
./target/release/mehpt-lab diff \
    target/lab-ci-fault-a/fig7/report.json target/lab-ci-fault-b/fig7/report.json

echo "==> watchdog: a hung cell times out, the sweep still completes"
expect_failed_cells ./target/release/mehpt-lab fig7 --fault 'hang:gups-mehpt' \
    --timeout 2 --frag 0.7 --seeds 2 --jobs 4 --quick --max-accesses 20000 \
    --out target/lab-ci-hang-a
expect_failed_cells ./target/release/mehpt-lab fig7 --fault 'hang:gups-mehpt' \
    --timeout 2 --frag 0.7 --seeds 2 --jobs 1 --quick --max-accesses 20000 \
    --out target/lab-ci-hang-b
./target/release/mehpt-lab diff \
    target/lab-ci-hang-a/fig7/report.json target/lab-ci-hang-b/fig7/report.json
grep -q '"timed_out": 1' target/lab-ci-hang-a/fig7/report.json

echo "==> deterministic retry: a transient fault heals, a persistent one exhausts"
# Plain rule: fires on attempt 0 only, so one retry turns the sweep clean.
./target/release/mehpt-lab fig7 --fault 'panic:gups-mehpt' --retries 1 \
    --frag 0.7 --seeds 2 --jobs 4 --quick --max-accesses 20000 \
    --out target/lab-ci-retry >/dev/null 2>&1
grep -q '"attempt": 1' target/lab-ci-retry/fig7/report.json
# Persistent rule (kind*): every attempt faults; the cell stays failed.
expect_failed_cells ./target/release/mehpt-lab fig7 --fault 'panic*:gups-mehpt' \
    --retries 1 --frag 0.7 --seeds 2 --jobs 4 --quick --max-accesses 20000 \
    --out target/lab-ci-retry-exhaust
grep -q '"failed": 1' target/lab-ci-retry-exhaust/fig7/report.json

echo "==> kill/resume: a SIGKILLed sweep resumes to a byte-identical report"
rm -rf target/lab-ci-kill target/lab-ci-kill-clean
KILL_FLAGS=(fig7 --fault 'hang:gups-mehpt' --timeout 2 --frag 0.7 --seeds 2 \
    --quick --max-accesses 20000)
expect_failed_cells ./target/release/mehpt-lab "${KILL_FLAGS[@]}" --jobs 1 \
    --out target/lab-ci-kill-clean
./target/release/mehpt-lab "${KILL_FLAGS[@]}" --jobs 4 \
    --out target/lab-ci-kill >/dev/null 2>&1 &
victim=$!
# Wait until the journal holds finished work (magic+header is ~100 bytes),
# then SIGKILL mid-run. The injected hang keeps the victim alive >= 2s.
for _ in $(seq 1 600); do
    size=$(stat -c %s target/lab-ci-kill/sweep.journal 2>/dev/null || echo 0)
    [ "$size" -gt 256 ] && break
    kill -0 "$victim" 2>/dev/null || break
    sleep 0.05
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
expect_failed_cells ./target/release/mehpt-lab "${KILL_FLAGS[@]}" --jobs 4 \
    --resume --out target/lab-ci-kill
cmp target/lab-ci-kill-clean/fig7/report.json target/lab-ci-kill/fig7/report.json
cmp target/lab-ci-kill-clean/fig7/report.csv target/lab-ci-kill/fig7/report.csv
./target/release/mehpt-lab diff \
    target/lab-ci-kill-clean/fig7/report.json target/lab-ci-kill/fig7/report.json

echo "==> corrupt journal: a flipped byte is detected, truncated and survived"
# Flip one byte past the header region of the (complete) journal, then
# resume: the reader must salvage the intact prefix, re-run the rest, and
# still land on the byte-identical report.
printf '\xff' | dd of=target/lab-ci-kill/sweep.journal bs=1 seek=300 \
    count=1 conv=notrunc status=none
expect_failed_cells ./target/release/mehpt-lab "${KILL_FLAGS[@]}" --jobs 4 \
    --resume --out target/lab-ci-kill
cmp target/lab-ci-kill-clean/fig7/report.json target/lab-ci-kill/fig7/report.json

echo "==> exit-code contract: diff on a truncated report exits 3"
head -c 200 target/lab-ci-kill-clean/fig7/report.json > target/lab-ci-kill/torn.json
status=0
./target/release/mehpt-lab diff target/lab-ci-kill/torn.json \
    target/lab-ci-kill-clean/fig7/report.json >/dev/null 2>&1 || status=$?
if [ "$status" -ne 3 ]; then
    echo "expected exit 3 (I/O or parse error) from diff on a torn report (got $status)" >&2
    exit 1
fi

echo "CI OK"
