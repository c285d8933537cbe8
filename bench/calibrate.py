"""A fixed reference workload that measures how fast the host runs right now.

The benchmark's host is a shared virtual machine whose speed changes by up
to 2.5x from one second to the next (other tenants, frequency changes),
invisibly to the guest: process CPU time slows down just as wall time
does.  A 30 s run can fall wholly into a fast or a slow stretch, so the
median pass time of a run moved by 25-30% between runs of the same code.

run.py therefore times this reference right before and right after each
instance of a pass and each set-up, and reports the program's time
rescaled to a fixed nominal host speed:

    normalized = measured * NOMINAL_ROUND_S / (reference time per round)

The reference does the kind of work gkbench spends its time on, in plain
Python and independent of gkbench: exact Fraction elimination, a
dict-of-monomials polynomial product and Gaussian-rational scalars.  No
change to gkbench can change it, so a slower or faster program still
moves the normalized time by its own factor.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Seconds one round takes at the nominal speed: the median on a 2-core
# Xeon virtual machine with Python 3.11.7 while the host ran in its fast
# state.  Any fixed value would do; this one makes normalized times read
# as seconds on that machine.
NOMINAL_ROUND_S = 0.00125

PASS_ROUNDS = 32  # about 0.04 s at the nominal speed, between the instances of a pass
SETUP_ROUNDS = 16  # about 0.02 s, before and after each set-up interpreter


def _inputs() -> tuple[list[list[Fraction]], dict[tuple[int, ...], Fraction], list[tuple]]:
    rng = random.Random(20261017)
    matrix = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)] for _ in range(5)
    ]
    poly = {
        tuple(rng.randint(0, 2) for _ in range(6)): Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        for _ in range(10)
    }
    gauss = [
        (Fraction(rng.randint(-7, 7), rng.randint(1, 7)), Fraction(rng.randint(-7, 7), rng.randint(1, 7)))
        for _ in range(12)
    ]
    return matrix, poly, gauss


MATRIX, POLY, GAUSS = _inputs()


def _rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    m = [row[:] for row in rows]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return m


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _gauss_product(values: list[tuple]) -> tuple:
    re, im = Fraction(1), Fraction(0)
    for a, b in values:
        re, im = re * a - im * b, re * b + im * a
    return re, im


def one_round() -> tuple:
    """The reference's unit of work; its result is fixed."""
    return _rref(MATRIX)[0][-1], len(_poly_mul(POLY, POLY)), _gauss_product(GAUSS)


EXPECTED = one_round()


def round_s(rounds: int) -> float:
    """Seconds per round, over `rounds` rounds timed now."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        got = one_round()
    elapsed = time.perf_counter() - t0
    if got != EXPECTED:
        raise RuntimeError("the reference workload gave a different result")
    return elapsed / rounds


def normalize(measured_s: float, before_round_s: float, after_round_s: float) -> float:
    """`measured_s`, timed between two reference timings, rescaled to the
    nominal host speed."""
    return measured_s * NOMINAL_ROUND_S / ((before_round_s + after_round_s) / 2)
