"""physanet benchmark: time to solution, set-up and memory, plus a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bowtie-sweep --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it records the environment and the raw samples; the same record, and
for traced runs the spans, are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Both commits of a comparison run with this many BLAS threads; 2 is what
# OpenBLAS picks by default on the 2-core machine the bounds were set on.
BLAS_THREADS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"


def _blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS loaded into this process."""
    found = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info.get('version', '')}".strip()

    return {
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy.show_config), "scipy": blas(scipy.show_config)},
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 0 for the bow-tie, 7 for grids)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "physanet" / "__init__.py").is_file():
        print(f"perfbench: no physanet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The thread count must be fixed before numpy loads OpenBLAS, so the
    # modules that import numpy are imported only after this point.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import physanet
    from workloads import WORKLOADS, Bench, measure

    if Path(physanet.__file__).resolve().parent != ROOT / "src" / "physanet":
        print(f"perfbench: imported physanet from {physanet.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    seed = workload.default_seed if args.seed is None else args.seed

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        outcome = measure(workload, Bench(ROOT, work, seed), args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"environment": environment(seed), **outcome["details"]}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({**record, "result": outcome["result"]}, indent=1) + "\n")
    if outcome["spans"] is not None:
        import numpy as np

        store = outcome["spans"]
        np.savez(OUT_DIR / f"{workload.name}.spans.npz",
                 names=np.array(store.names), **store.arrays())
    print(json.dumps(record))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
