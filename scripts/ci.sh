#!/usr/bin/env bash
# Offline CI for the mehpt workspace: format, build, lint, docs, test, and a
# smoke run of the mehpt-lab experiment runner. No network access required
# — the workspace has no crates-io dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> release profile: the benchmark's speedbench build links with fat LTO"
# .cargo/config.toml sets lto = "fat" for every release build started in the
# repository. speedbench is a workspace of its own, so a [profile] moved into
# the root Cargo.toml would silently stop reaching it. Build it the way the
# benchmark's command does, into a fresh target dir so that -v prints every
# rustc line, and require fat LTO on the binary's link.
rm -rf target/ci-profile
if ! profile_log=$(cargo build --release --offline -v \
    --manifest-path speedbench/Cargo.toml --target-dir target/ci-profile 2>&1) ||
    ! grep -- '--crate-name mehpt_speedbench' <<<"$profile_log" | grep -q -- '-C lto=fat'; then
    printf '%s\n' "$profile_log" >&2
    echo "speedbench's release build failed or does not link with -C lto=fat" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets (deny warnings)"
# --all-targets: tests, benches and examples are linted too.
cargo clippy --workspace --all-targets --offline --quiet -- -D warnings

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

echo "==> bench smoke: ctx_switch and ablation run to completion"
# The step above only compiles the bench targets. These two run on the lab
# engine at a tiny scale; ctx_switch prices L2P save/restore with the
# simulator's own l2p_save_restore_cycles.
# Their per-cell progress on stderr is kept and printed on failure.
bench_log=$(mktemp)
for b in ctx_switch ablation; do
    if ! MEHPT_SCALE=0.005 MEHPT_JOBS=2 cargo bench -p bench --offline --quiet \
        --bench "$b" >/dev/null 2>"$bench_log"; then
        cat "$bench_log" >&2
        echo "bench $b failed" >&2
        exit 1
    fi
done
rm -f "$bench_log"

echo "==> micro: every micro-benchmark case runs to completion"
# The compile step above would not notice a case that panics (a cache
# geometry, a walk on a table that lacks the page). The timings are not
# checked; the run takes about 10 seconds.
micro_log=$(mktemp)
if ! cargo bench -p bench --offline --quiet --bench micro >"$micro_log" 2>&1; then
    cat "$micro_log" >&2
    echo "bench micro failed" >&2
    exit 1
fi
rm -f "$micro_log"

echo "==> radix5: all three rows, within the host-memory bound"
# The 1,000,000-page row builds three tables of about a million modeled
# nodes or clusters each. Page tables hold host memory in proportion to
# their live entries, so the run peaks near 530 MiB; the bound leaves
# headroom but catches a return to per-node 4KB arrays (~9 GB).
radix5_bound_mib=768
radix5_peak=
if radix5_out=$(cargo bench -p bench --offline --quiet --bench radix5 2>&1); then
    radix5_peak=$(sed -n 's/^peak host memory (VmHWM): \([0-9]*\) MiB$/\1/p' <<<"$radix5_out")
fi
if [ -z "$radix5_peak" ] || [ "$radix5_peak" -gt "$radix5_bound_mib" ]; then
    printf '%s\n' "$radix5_out" >&2
    echo "radix5 peaked at ${radix5_peak:-?} MiB (bound ${radix5_bound_mib} MiB)" >&2
    exit 1
fi

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

echo "==> examples: every example runs to completion"
# Nothing else runs them, and two drive the library's elastic cuckoo table.
# set -e stops CI at the first example that exits non-zero.
for ex in quickstart fragmentation_study graph_analytics kv_store secure_directory; do
    cargo run --release --offline --quiet --example "$ex" >/dev/null
done

echo "==> mehpt-lab table1 --jobs 2 --quick (smoke)"
./target/release/mehpt-lab table1 --jobs 2 --quick --out target/lab-ci >/dev/null

echo "==> checked build: every --quick cell with debug assertions on"
# An optimised build with debug assertions, in its own target dir, runs the
# walkers' check of every timing-only walk against the reference walk and
# the runner's check that every walk, faults included, agrees with the OS's
# mapping (a fault's address must translate to nothing) over the cells of
# every paper preset. A failed check panics its cell, and the sweep exits 1.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true cargo build --release --quiet \
    --target-dir target/checked --bin mehpt-lab
if ! ./target/checked/release/mehpt-lab all --jobs 2 --quick \
    --out target/lab-ci-checked >/dev/null; then
    grep -h '"error"' target/lab-ci-checked/*/report.json | sort -u | head >&2
    exit 1
fi

echo "==> checked relocation golden: compaction moves data pages"
# Neither checked sweep moves a data page: no quick cell and no speedbench
# cell compacts memory under one. The relocation golden's ECPT cell moves
# 510, so the OS's remaps, TLB shootdowns and on-demand frame→page map run
# here with the walk cross-checks on, and the digests must still match. A
# walked page's frame must start a live data block of the page's size, so a
# move whose new frame never reached the page table fails here.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true cargo test --release --offline --quiet \
    --target-dir target/checked --test relocation_golden

echo "==> checked speedbench: the walk cross-checks on paper-scale cells"
# The checked sweep above runs scale-0.005 cells, whose tables barely
# resize. speedbench's gups_hpt (scale 0.1) and mummer_thp (scale 1.0) cells
# built with debug assertions check every timing-only walk, faults
# included, against the reference walk and the OS's mapping through many
# resizes. A failed check
# panics its cell, and speedbench reports "correct": false.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true cargo build --release --offline --quiet \
    --manifest-path speedbench/Cargo.toml --target-dir target/checked-speedbench
sb_log=$(mktemp)
for w in gups_hpt mummer_thp; do
    if ! out=$(./target/checked-speedbench/release/mehpt-speedbench \
        --workload "$w" --seconds 0.001 --trace 0 2>"$sb_log") ||
        ! grep -q '"correct": true' <<<"$out"; then
        cat "$sb_log" >&2
        printf '%s\n' "$out" >&2
        echo "checked speedbench $w: a walk cross-check failed" >&2
        exit 1
    fi
done
rm -f "$sb_log"

echo "==> determinism: --jobs 1 and --jobs 4 must emit identical reports"
./target/release/mehpt-lab run --preset fig7 --seeds 3 --jobs 1 --quick \
    --max-accesses 20000 --out target/lab-ci-j1 >/dev/null 2>&1
./target/release/mehpt-lab run --preset fig7 --seeds 3 --jobs 4 --quick \
    --max-accesses 20000 --out target/lab-ci-j4 >/dev/null 2>&1
./target/release/mehpt-lab diff \
    target/lab-ci-j1/fig7/report.json target/lab-ci-j4/fig7/report.json
cmp target/lab-ci-j1/fig7/report.csv target/lab-ci-j4/fig7/report.csv

echo "==> negative control: diff must see a metric outside the stat fields"
# One cell's mean_walk_accesses, which no stat field carries, changed in a
# copy: the diff must report drift (exit 1), not "no drift" and not ≥2.
sed '0,/"mean_walk_accesses": [^,]*/s//"mean_walk_accesses": 12345.678/' \
    target/lab-ci-j1/fig7/report.json >target/lab-ci-j1/fig7/drifted.json
if cmp -s target/lab-ci-j1/fig7/report.json target/lab-ci-j1/fig7/drifted.json; then
    echo "negative control: no mean_walk_accesses to change" >&2
    exit 1
fi
status=0
./target/release/mehpt-lab diff target/lab-ci-j1/fig7/report.json \
    target/lab-ci-j1/fig7/drifted.json >/dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "expected exit 1 (drift) from diff on a changed mean_walk_accesses (got $status)" >&2
    exit 1
fi

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
# Its --jobs 1 twin: a retry runs on the same pool as every other job, so
# the healed sweep's reports must not depend on the pool's size.
./target/release/mehpt-lab fig7 --fault 'panic:gups-mehpt' --retries 1 \
    --frag 0.7 --seeds 2 --jobs 1 --quick --max-accesses 20000 \
    --out target/lab-ci-retry-j1 >/dev/null 2>&1
cmp target/lab-ci-retry/fig7/report.json target/lab-ci-retry-j1/fig7/report.json
cmp target/lab-ci-retry/fig7/report.csv target/lab-ci-retry-j1/fig7/report.csv
./target/release/mehpt-lab diff \
    target/lab-ci-retry/fig7/report.json target/lab-ci-retry-j1/fig7/report.json
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

echo "==> exit-code contract: a count too large for its type exits 2"
# 4294967298 is 2^32 + 2, which a 32-bit narrowing would run as 2 seeds.
status=0
./target/release/mehpt-lab table1 --quick --seeds 4294967298 \
    --out target/lab-ci-seeds >/dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "expected exit 2 (usage error) from --seeds 4294967298 (got $status)" >&2
    exit 1
fi

echo "CI OK"
