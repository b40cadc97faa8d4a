"""Fixed reference work that sets the benchmark's unit of time.

The benchmark runs on shared virtual machines whose speed drifts by up to 2x
over minutes, with the process never descheduled: every instruction just
takes longer.  Raw wall times of the same code then differ from run to run
by more than any useful regression bound.  So the benchmark times this fixed
kernel right before and right after each operation and each set-up probe, and
reports times in reference seconds: wall time scaled so that this kernel
takes ``REFERENCE_SECONDS``.

The kernel does the kind of work quasiwork spends its time on: Jacobi
rotations on complex 3x3 Hermitian matrices in plain Python arithmetic, plus
small numpy array operations.  It is part of the benchmark, not of quasiwork,
so a change to quasiwork changes the operation times and not the unit.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_SECONDS = 0.1  # the kernel's time at reference speed, by definition
MATRICES = 300
SWEEPS = 6
PRODUCTS = 3500
FLOATS = 200_000


def _jacobi_sweeps(m: list[list[complex]]) -> float:
    """Cyclic complex Jacobi sweeps on a 3x3 Hermitian matrix, in place."""
    for _ in range(SWEEPS):
        for p in range(2):
            for q in range(p + 1, 3):
                apq = m[p][q]
                mod = abs(apq)
                if mod < 1e-300:
                    continue
                f = apq / mod
                tau = (m[q][q].real - m[p][p].real) / (2.0 * mod)
                t = (-1.0 if tau >= 0.0 else 1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c * f
                for k in range(3):
                    mkp, mkq = m[k][p], m[k][q]
                    m[k][p] = c * mkp - s.conjugate() * mkq
                    m[k][q] = s * mkp + c * mkq
                for k in range(3):
                    mpk, mqk = m[p][k], m[q][k]
                    m[p][k] = c * mpk - s * mqk
                    m[q][k] = s.conjugate() * mpk + c * mqk
    return sum(m[k][k].real for k in range(3))


def reference_work() -> float:
    """The fixed kernel; returns a checksum so no step can be skipped.

    Three parts of about equal time: Jacobi sweeps in Python complex
    arithmetic, products of 3x3 numpy arrays, and a Python float loop.
    Slowdowns of a shared core hit these kinds of work unequally, and
    quasiwork's operations mix all three.
    """
    rng = np.random.default_rng(20220726)
    a = rng.standard_normal((MATRICES, 3, 3)) + 1j * rng.standard_normal((MATRICES, 3, 3))
    total = 0.0
    for k in range(MATRICES):
        h = a[k] + a[k].conj().T
        total += _jacobi_sweeps([[complex(h[i, j]) for j in range(3)] for i in range(3)])
    u = np.eye(3, dtype=np.complex128)
    for k in range(PRODUCTS):
        v = u @ a[k % MATRICES] + 1e-3 * k
        total += float(np.abs(v).max())
    for k in range(FLOATS):
        total += (k * 0.5) ** 0.5
    return total


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
