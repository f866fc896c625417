#!/usr/bin/env python3
"""Sanitizer gate for the service/resilience layer and the rank threads.

Configures and builds dedicated build trees with -DARDBT_ASAN=ON
(address + undefined, leak check at exit), -DARDBT_UBSAN=ON (undefined
only) or -DARDBT_TSAN=ON (threads), builds just the mode's test binaries,
and runs them. The retry/containment machinery moves Sessions, Leases and
panels across failure paths — the exact territory where a
use-after-invalidate or a dangling Lease would hide. The engine hands
ranks to parked worker threads that outlive every run, and par::Pool
forks and joins lanes inside a rank; ASan/UBSan cover their lifetimes and
TSan their handoffs. The ARD scan pipeline (round-interleaved steppers,
arena-recycled panels, blocking readiness probes) runs under all three;
the ARD factor/solve/update suites under ASan and UBSan.

The build trees live under the main build directory (passed as argv) and
are reused across runs, so only the first invocation pays a full
configure + compile.

Usage: check_sanitizers.py <source-dir> <build-dir> <mode>
  mode: asan | ubsan | tsan
"""

import os
import subprocess
import sys
from pathlib import Path

ENGINE_TARGETS = ["test_mpsim", "test_mpsim_stress", "test_par"]
# The ARD solver's own suites: arena-backed solve panels that become the
# result, the spike panel copied out of the arena, update() reuse.
ARD_TARGETS = ["test_pipeline", "test_ard", "test_update", "test_spd"]
# mode -> (CMake option, test binaries)
MODES = {
    "asan": ("ARDBT_ASAN",
             ["test_service", "test_resilience"] + ENGINE_TARGETS + ARD_TARGETS),
    "ubsan": ("ARDBT_UBSAN",
              ["test_service", "test_resilience"] + ENGINE_TARGETS + ARD_TARGETS),
    "tsan": ("ARDBT_TSAN", ENGINE_TARGETS + ["test_session", "test_pipeline"]),
}


def fail(msg):
    print(f"check_sanitizers: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, **kw):
    proc = subprocess.run(cmd, capture_output=True, text=True, **kw)
    if proc.returncode != 0:
        fail(f"{' '.join(str(c) for c in cmd)} exited {proc.returncode}:\n"
             f"{proc.stdout[-4000:]}\n{proc.stderr[-4000:]}")
    return proc


def main():
    if len(sys.argv) != 4 or sys.argv[3] not in MODES:
        fail("usage: check_sanitizers.py <source-dir> <build-dir> asan|ubsan|tsan")
    source = Path(sys.argv[1]).resolve()
    mode = sys.argv[3]
    option, targets = MODES[mode]
    tree = Path(sys.argv[2]).resolve() / f"sanitize-{mode}"

    run(["cmake", "-B", str(tree), "-S", str(source),
         f"-D{option}=ON", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", str(tree), "-j", jobs, "--target"] + targets)
    for target in targets:
        binary = tree / "tests" / target
        if not binary.exists():
            fail(f"{binary} not built")
        proc = run([str(binary)])
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        print(f"check_sanitizers: {mode} {target}: {tail}")
    print(f"check_sanitizers: PASS ({mode})")


if __name__ == "__main__":
    main()
