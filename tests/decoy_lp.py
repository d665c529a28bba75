"""A linear-programming oracle for the decoy-state bounds (tests only).

A closed-form decoy bound is sound only if no photon-number yields that
agree with the observed counts beat it. lp_bounds decides that with a small
linear program (LP), solved by scipy's HiGHS, with no truth value and no
receiver model.

The variables are the n-photon yields Y_n and error yields W_n = e_n Y_n
for n <= n_max, with 0 <= W_n <= Y_n <= 1. A class of intensity mu sends n
photons with the Poisson probability P(n), so its gain Q is the sum of
P(n) Y_n over every n, and its error gain E Q the sum of P(n) W_n. The
terms past n_max are left out: each lies in [0, P(n)], so the LP lets each
class's sum up to n_max fall below Q (or E Q) by the class's Poisson tail,
the chance of more than n_max photons. W_1 / Y_1 is maximised as an LP
after the Charnes-Cooper change of variables: z = (Y, W) / Y_1 and
s = 1 / Y_1 (times the row scale below), with z's Y_1 fixed at 1.

Each optimum comes with its error: how far, to first order, the tail's
slack and the solver's feasibility tolerance can move it. That is the sum,
over the constraints, of each one's shadow price times how far it may be
off. Every row is divided by the largest gain, so that the solver's
absolute tolerance applies to numbers of order one at any channel loss.
"""

import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import gammainc

N_MAX = 20  # photon numbers kept: at mu <= 1 the Poisson tail past 20 is below 1e-19
SOLVER_TOL = 1e-10  # HiGHS's primal and dual feasibility tolerances, on the scaled rows
# presolve off: it called rows of intensities 1.6e-8 apart infeasible, where the simplex solves them
OPTIONS = {"primal_feasibility_tolerance": SOLVER_TOL, "dual_feasibility_tolerance": SOLVER_TOL, "presolve": False}
# linprog's status where the counts sit so near the edge of what any yields give that, at the solver's
# tolerance, one of the two LPs finds yields and the other finds none: 2 infeasible, 4 numerical
# difficulties (HiGHS's "unknown")
NO_YIELDS = (2, 4)


def optimum_error(result, slack) -> float:
    """How far a constraint slack (one entry per inequality row) and the solver's tolerance can move an LP's
    optimum, to first order."""
    prices = [result.ineqlin.marginals, result.eqlin.marginals, result.lower.marginals, result.upper.marginals]
    return float(np.abs(result.ineqlin.marginals) @ slack + sum(np.abs(p).sum() for p in prices) * SOLVER_TOL)


def lp_bounds(mus, gains, error_gains, n_max: int = N_MAX):
    """((min Y_1, its error), (max W_1 / Y_1, its error)) over the yields that the classes' gains and error
    gains allow, or None where no yields do, at the solver's tolerance.

    mus, gains and error_gains hold one entry per class; a vacuum class has mu 0.
    """
    p = np.array([[math.exp(-mu) * mu**n / math.factorial(n) for n in range(n_max + 1)] for mu in mus])
    scale = max(max(gains), np.finfo(float).tiny)
    q, eq, tail = (np.asarray(v, dtype=float) / scale for v in (gains, error_gains, gammainc(n_max + 1, mus)))
    size, zero = n_max + 1, np.zeros_like(p)
    eye = np.eye(size)
    # u = (Y, W) / scale: each class's sums lie in [Q - tail, Q] and [E Q - tail, E Q], and W <= Y
    rows = np.block([[p, zero], [-p, zero], [zero, p], [zero, -p], [-eye, eye]])
    rhs = np.concatenate([q, tail - q, eq, tail - eq, np.zeros(size)])
    slack = np.concatenate([0 * q, tail, 0 * q, tail, np.zeros(size)])  # how far the tail widens each row
    low = linprog(np.eye(2 * size)[1], A_ub=rows, b_ub=rhs, bounds=(0.0, 1.0 / scale),
                  method="highs", options=OPTIONS)
    if low.status in NO_YIELDS:
        return None
    assert low.status == 0, low.message
    # (z, s) = (u, 1) / u's Y_1: each row times s, Y <= 1 as z_Y <= s / scale, and z's Y_1 = 1
    ratio_rows = np.block([[rows, -rhs[:, None]], [eye, np.zeros((size, size)), np.full((size, 1), -1.0 / scale)]])
    w1 = np.eye(2 * size + 1)
    high = linprog(-w1[size + 1], A_ub=ratio_rows, b_ub=np.zeros(len(ratio_rows)), A_eq=w1[1:2], b_eq=[1.0],
                   bounds=(0.0, None), method="highs", options=OPTIONS)
    if high.status in NO_YIELDS:
        return None
    assert high.status == 0, high.message
    s = high.x[-1]
    return ((low.fun * scale, optimum_error(low, slack) * scale),
            (-high.fun, optimum_error(high, np.concatenate([slack * s, np.zeros(size)]))))
