"""Environment record for a benchmark process: code revision, library
versions, BLAS build and the thread count the BLAS library itself reports."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy
import scipy

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_GETTERS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _git_rev(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[len("ref: "):]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[len("ref: "):]):
                return line.split()[0]
    return None


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "redflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _call(lib, names, restype):
    for name in names:
        if hasattr(lib, name):
            fn = getattr(lib, name)
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_libraries() -> list:
    """Each OpenBLAS bundled with numpy or scipy, with its thread count."""
    out = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            config = _call(lib, _CONFIG_GETTERS, ctypes.c_char_p)
            out.append({
                "package": pkg.__name__,
                "library": path.name,
                "config": config.decode() if config else None,
                "threads": _call(lib, _THREAD_GETTERS, ctypes.c_int),
            })
    return out


def collect(root: Path) -> dict:
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_rev": _git_rev(root),
        "source_sha256": _source_sha256(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": blas_libraries(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def blas_thread_problem(env: dict):
    """Why this process does not run BLAS on exactly one thread, or None."""
    libs = env["blas_libraries"]
    if not libs:
        return "no OpenBLAS library found to query for its thread count"
    bad = [f"{lib['library']}: {lib['threads']}" for lib in libs if lib["threads"] != 1]
    if bad:
        return f"BLAS reports a thread count other than 1 ({', '.join(bad)})"
    return None
