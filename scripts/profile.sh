#!/usr/bin/env bash
# Where speedbench's host time goes, by function.
#
#   scripts/profile.sh <workload> [seconds] [top]
#
# Builds speedbench with frame pointers and line tables into
# target/profile (its own target dir), compiles scripts/sampler.c with the
# system gcc into target/profile/sampler.so, and runs the workload for
# <seconds> (default 10) with the sampler preloaded: every 100 us of CPU
# time it records the running thread's stack (CPU-time timers expire on the
# kernel's tick, so on a 250 Hz kernel a sample comes every 4 ms of CPU
# time, about 250 per second per busy thread). Then it symbolises the
# samples with addr2line (inlined frames included) and prints the <top>
# (default 25) functions by self samples and by inclusive samples, and the
# workspace's source files (crates/<crate>/src/<file>.rs) by inclusive
# samples.
#
# Samples under speedbench's reference kernel (speedbench/src/host.rs),
# which times the host beside the cells, and under its setup_pass, the
# untimed set-up sweeps behind setup_s, are counted apart and left out of
# both tables: maccess_per_s times neither. The cells' own set-up inside
# the timed passes stays in. The release profile builds with fat LTO, and
# addr2line -f -i then pairs some names with the wrong frame's location
# (an inlined library frame's location under the physical function's name,
# so an outer function can read ~98% inclusive). The file table takes each
# frame's location alone, so it does not depend on that pairing: read it
# first, and the function tables only as hints. Needs gcc, addr2line and
# python3; installs nothing and edits nothing under speedbench/. Raw
# samples stay in target/profile/<workload>.samples.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: $0 <workload> [seconds] [top]" >&2
    exit 2
fi
workload=$1
seconds=${2:-10}
top=${3:-25}
dir=target/profile
mkdir -p "$dir"

echo "==> building the sampler and a frame-pointer speedbench" >&2
gcc -O2 -fPIC -shared -o "$dir/sampler.so" scripts/sampler.c
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release --offline --quiet --manifest-path speedbench/Cargo.toml \
    --target-dir "$dir"
bin=$dir/release/mehpt-speedbench
samples=$dir/$workload.samples

echo "==> sampling $workload for ${seconds}s" >&2
SAMPLER_OUT=$samples LD_PRELOAD=$PWD/$dir/sampler.so \
    "$bin" --workload "$workload" --seconds "$seconds" --trace 0 >/dev/null 2>&1 || true

python3 - "$bin" "$samples" "$top" <<'EOF'
import collections
import os
import re
import subprocess
import sys

binary, path, top = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open(path) as f:
    bias = int(f.readline().split()[1], 16)
    stacks = [[int(a, 16) for a in line.split()] for line in f if line.strip()]
if not stacks:
    sys.exit(f"no samples in {path}")

# Return addresses point after their call; symbolise the call itself.
stacks = [[s[0]] + [a - 1 for a in s[1:]] for s in stacks]
addrs = sorted({a for s in stacks for a in s})
# addr2line -a prints each address, then one (function, file:line) pair
# per frame, the innermost inlined function first.
text = subprocess.run(
    ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
    input="\n".join(f"{a - bias:x}" for a in addrs),
    capture_output=True, text=True, check=True,
).stdout.splitlines()
frames, cur, i = {}, None, 0
while i < len(text):
    if text[i].startswith("0x"):
        cur = bias + int(text[i], 16)
        frames[cur] = []
        i += 1
    else:
        frames[cur].append((text[i], text[i + 1]))
        i += 2


def label(frame):
    """A frame's function without its legacy-mangling hash suffix. Inlined
    frames carry only their short name, so they get their file's name."""
    name, loc = frame
    head, _, tail = name.rpartition("::h")
    if head and len(tail) == 16 and all(c in "0123456789abcdef" for c in tail):
        name = head
    if "::" not in name:
        name += f" [{loc.rsplit(':', 1)[0].rsplit('/', 1)[-1]}]"
    return name


CRATES = set(os.listdir("crates"))


def source(loc):
    """The workspace source file of a frame's location, or None (the
    standard library's sources sit under /rustc/, some in crates/ dirs)."""
    m = re.search(r"crates/([^/]+)/src/[^:]*\.rs", loc)
    return m.group(0) if m and m.group(1) in CRATES and "/rustc/" not in loc else None


host = setup = 0
self_count, incl, files = collections.Counter(), collections.Counter(), collections.Counter()
for s in stacks:
    fs = [f for a in s for f in frames.get(a, [("??", "??:0")])]
    if any("speedbench/src/host.rs" in loc for _, loc in fs):
        host += 1
        continue
    if any("setup_pass" in name for name, _ in fs):
        setup += 1
        continue
    self_count[label(fs[0])] += 1
    # Inclusive counts cover the workspace's own functions, not the
    # runtime and harness frames above them.
    for name in {label(f) for f in fs if "/crates/" in f[1]}:
        incl[name] += 1
    for file in {source(loc) for _, loc in fs} - {None}:
        files[file] += 1

n = len(stacks) - host - setup
print(f"{len(stacks)} samples; left out: {host} ({100 * host / len(stacks):.1f}%) under "
      f"speedbench/src/host.rs, {setup} ({100 * setup / len(stacks):.1f}%) under the "
      f"untimed setup_pass; {n} counted")
print("trust the file table: it reads only frame locations; under fat LTO addr2line")
print("pairs some function names with the wrong location, so the function tables mislead")
print("function inclusive: functions under crates/ only; [file] marks an inlined frame")
for title, counts in (("file inclusive", files), ("self", self_count), ("function inclusive", incl)):
    print(f"\ntop {top} by {title} samples:")
    for name, c in counts.most_common(top):
        print(f"{100 * c / max(n, 1):6.1f}%  {c:7}  {name}")
EOF
