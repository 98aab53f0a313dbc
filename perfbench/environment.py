"""Print the interpreter, numpy, scipy and OpenBLAS versions and BLAS threads.

    python perfbench/environment.py

Runs in a fresh process so that the BLAS libraries it reports are the ones a
`liyau verify` process loads, with their default thread counts.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)


def openblas_libraries() -> list:
    """Build string and thread count of every OpenBLAS mapped in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in os.path.basename(line.split()[-1])})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    info.update(threads=threads(), config=config().decode())
        found.append(info)
    return found


def main() -> None:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas": openblas_libraries(),
    }))


if __name__ == "__main__":
    main()
