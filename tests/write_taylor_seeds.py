"""Seed values of the Bessel Taylor table.

    python tests/write_taylor_seeds.py

computes K0(zc) and K1(zc) at the centres zc of rkcq.bessel's Taylor-table
cells with scipy.special.kv (D. E. Amos's AMOS code) and overwrites
src/rkcq/_taylor_seeds.npy, shape (2, 1156), complex128.  rkcq reads the
file instead of importing scipy; tests/test_bessel.py checks it against
the installed scipy.
"""

import os
import sys

import numpy as np
import scipy.special

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from rkcq import bessel  # noqa: E402


if __name__ == "__main__":
    zc = bessel._taylor_centres()
    np.save(bessel._SEEDS, np.stack([scipy.special.kv(0, zc), scipy.special.kv(1, zc)]))
    print("wrote", bessel._SEEDS)
