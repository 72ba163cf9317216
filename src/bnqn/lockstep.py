"""Lockstep iteration of BNQN and backtracking GD over many starts at once.

Every active start (a *lane*) holds its point as one entry of two float64
arrays, x and y, and all lanes take their k-th step in the same sweep.  Each
sweep evaluates g, g' and g'' by Horner's rule on the split real/imaginary
arrays, tests convergence, divergence and the iteration cap, and then takes
one step on the lanes still running: shift selection by mask, the closed-form
2x2 eigensystem, and an Armijo search in which the lanes that have accepted
drop out of the backtracking loop.

The kernel reproduces the scalar ``solvers.run`` bit for bit, so it keeps
that loop's exact floating-point operations:

- ``math.hypot`` per lane, because ``numpy.hypot`` rounds differently on
  some inputs;
- complex products written out as ``ar*zr - ai*zi`` and ``ar*zi + ai*zr``,
  the form Python's complex multiply uses (numpy's complex128 multiply
  rounds differently);
- Python's ``**`` per lane for ``grad_norm**tau``, because numpy's
  vectorized power is not the C library's ``pow``;
- ``max(1.0, v)`` as ``where(v > 1.0, v, 1.0)`` and ``min(p, q)`` as
  ``where(q < p, q, p)``, which pick the same operand as Python when a value
  is NaN.

Lanes stop when they converge or diverge (the caller classifies them), hit
the cap, or fail the step (no admissible shift, a singular shifted Hessian,
or an Armijo underflow), exactly where the scalar loop would stop them.  The
kernel keeps no state per lane besides the point and the step count, so the
caller can finish a few remaining lanes with the scalar loop.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .objective import PolyModulusObjective
from .solvers import _UNDERFLOW_LIMIT, Method, SolverConfig

__all__ = ["CAPPED", "FAILED", "LOCKSTEP_METHODS", "STOPPED", "UNFINISHED", "iterate"]

LOCKSTEP_METHODS = (Method.BNQN_NEW_VARIANT, Method.BACKTRACKING_GD)

# Lane outcomes.  STOPPED lanes converged or left the divergence radius and
# still need ``classify``; CAPPED and FAILED lanes end Undecided; UNFINISHED
# lanes were still running when at most ``tail`` lanes were left.
STOPPED, CAPPED, FAILED, UNFINISHED = 0, 1, 2, 3


def _hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.hypot, a.tolist(), b.tolist()), float, len(a))


def _horner(coeffs, zr, zi):
    """Python's complex Horner loop (acc = acc*z + c from acc = 0j), per lane."""
    ar = ai = 0.0
    for c in reversed(coeffs):
        ar, ai = ar * zr - ai * zi + c.real, ar * zi + ai * zr + c.imag
    return ar, ai


def _times_conj(pr, pi, gr, gi):
    """p * conj(g) with Python's complex product."""
    ngi = -gi
    return pr * gr - pi * ngi, pr * ngi + pi * gr


def _armijo(g, x, y, wx, wy, fz, slope, cfg: SolverConfig):
    """Per-lane Armijo search; returns (gamma, failed) arrays.

    Lanes leave the backtracking loop as they accept.  The test keeps the
    scalar form ``f(trial) <= f(z) - gamma*slope*armijo_factor``.
    """
    gamma = np.full(len(x), cfg.gamma0)
    failed = np.zeros(len(x), dtype=bool)
    todo = np.arange(len(x))
    while todo.size:
        gt = gamma[todo]
        vr, vi = _horner(g, x[todo] - gt * wx[todo], y[todo] - gt * wy[todo])
        ok = 0.5 * (vr * vr + vi * vi) <= fz[todo] - gt * slope[todo] * cfg.armijo_factor
        todo = todo[~ok]
        gamma[todo] = gamma[todo] * cfg.shrink_factor
        under = gamma[todo] < _UNDERFLOW_LIMIT
        failed[todo[under]] = True
        todo = todo[~under]
    return gamma, failed


def _bnqn_direction(gx, gy, gn, a, b, c, cfg: SolverConfig):
    """BNQN direction per lane for the Hessian [[a, b], [b, c]]; returns
    (wx, wy, failed).

    Mirrors ``select_delta`` followed by ``reflected_direction``: the first
    shift whose smallest |eigenvalue| clears kappa*|grad|^tau wins, and the
    eigensystem of the winning shifted Hessian gives the reflected solve.
    """
    n = len(gx)
    scale = np.fromiter(map(pow, gn.tolist(), repeat(cfg.tau)), float, n)
    threshold = cfg.kappa * scale
    chosen = np.zeros(n, dtype=bool)
    sa, sc, half_diff, r, l1, l2 = (np.empty(n) for _ in range(6))
    for d in cfg.deltas:
        todo = np.flatnonzero(~chosen)
        if not todo.size:
            break
        shift = d * scale[todo]
        ap, bp, cp = a[todo] + shift, b[todo], c[todo] + shift
        hd = 0.5 * (ap - cp)
        rp = _hypot(hd, bp)
        diag = bp == 0.0
        ordered = ap <= cp
        t = 0.5 * (ap + cp)
        e1 = np.where(diag, np.where(ordered, ap, cp), t - rp)
        e2 = np.where(diag, np.where(ordered, cp, ap), t + rp)
        m1, m2 = np.abs(e1), np.abs(e2)
        ok = np.where(m2 < m1, m2, m1) >= threshold[todo]
        win = todo[ok]
        chosen[win] = True
        sa[win], sc[win], half_diff[win], r[win] = ap[ok], cp[ok], hd[ok], rp[ok]
        l1[win], l2[win] = e1[ok], e2[ok]
    # _eig2_system: eigenvector of l2 from the better-conditioned form
    pos = half_diff >= 0.0
    vx = np.where(pos, half_diff + r, b)
    vy = np.where(pos, b, r - half_diff)
    nv = _hypot(vx, vy)
    u2x, u2y = vx / nv, vy / nv
    u1x, u1y = -u2y, u2x
    flip = (u2x < 0.0) | ((u2x == 0.0) & (u2y < 0.0))
    u2x, u2y = np.where(flip, -u2x, u2x), np.where(flip, -u2y, u2y)
    flip = (u1x < 0.0) | ((u1x == 0.0) & (u1y < 0.0))
    u1x, u1y = np.where(flip, -u1x, u1x), np.where(flip, -u1y, u1y)
    # a diagonal shifted Hessian keeps the coordinate axes
    diag = b == 0.0
    ordered = sa <= sc
    u1x = np.where(diag, np.where(ordered, 1.0, 0.0), u1x)
    u1y = np.where(diag, np.where(ordered, 0.0, 1.0), u1y)
    u2x = np.where(diag, np.where(ordered, 0.0, 1.0), u2x)
    u2y = np.where(diag, np.where(ordered, 1.0, 0.0), u2y)
    failed = ~chosen | (l1 == 0.0) | (l2 == 0.0)
    c1 = (gx * u1x + gy * u1y) / np.abs(l1)
    c2 = (gx * u2x + gy * u2y) / np.abs(l2)
    return c1 * u1x + c2 * u2x, c1 * u1y + c2 * u2y, failed


def _cap(wx, wy, norm, theta):
    """w / max(1.0, theta*|w|), the theta cap on the step direction."""
    div = theta * norm
    div = np.where(div > 1.0, div, 1.0)
    return wx / div, wy / div


def iterate(obj: PolyModulusObjective, method: Method, cfg: SolverConfig, x0, y0, tail: int):
    """Run ``method`` from every start (x0[i], y0[i]) in lockstep.

    Returns ``(x, y, steps, outcome)`` arrays: each lane's last point, the
    steps it took, and its outcome code.  Once a sweep's checks leave at most
    ``tail`` lanes running, those lanes come back UNFINISHED at their current
    point (with ``steps < cfg.max_iter``), for the caller to finish.
    """
    if method not in LOCKSTEP_METHODS:
        raise ValueError(f"no lockstep kernel for {method}")
    hessian = method is Method.BNQN_NEW_VARIANT
    g, dg, ddg = obj.g.coeffs, obj.dg.coeffs, obj.ddg.coeffs
    radius = obj.divergence_radius
    n = len(x0)
    out_x, out_y = np.array(x0, dtype=float), np.array(y0, dtype=float)
    out_k = np.zeros(n, dtype=int)
    out_code = np.full(n, UNFINISHED, dtype=np.int8)
    lane = np.arange(n)
    x, y = out_x.copy(), out_y.copy()
    k = 0

    def retire(mask, code):
        out_x[lane[mask]], out_y[lane[mask]] = x[mask], y[mask]
        out_k[lane[mask]] = k
        out_code[lane[mask]] = code

    with np.errstate(all="ignore"):
        while lane.size:
            gr, gi = _horner(g, x, y)
            dr, di = _horner(dg, x, y)
            wr, wi = _times_conj(dr, di, gr, gi)
            gx, gy = wr, -wi
            gn = _hypot(gx, gy)
            stop = gn <= cfg.grad_tol
            # hypot(x, y) < radius whenever both |x| and |y| are <= radius/2
            far = ~stop & ~(np.maximum(np.abs(x), np.abs(y)) <= 0.5 * radius)
            far[far] = _hypot(x[far], y[far]) > radius
            stop |= far
            retire(stop, STOPPED)
            run_on = ~stop
            if k >= cfg.max_iter:
                retire(run_on, CAPPED)
                break
            if np.count_nonzero(run_on) <= tail:
                retire(run_on, UNFINISHED)
                break
            x, y, lane, gr, gi, dr, di, gx, gy, gn = (
                v[run_on] for v in (x, y, lane, gr, gi, dr, di, gx, gy, gn)
            )
            if hessian:
                er, ei = _horner(ddg, x, y)
                ur, ui = _times_conj(er, ei, gr, gi)
                s = dr * dr + di * di
                wx, wy, failed = _bnqn_direction(gx, gy, gn, ur + s, -ui, s - ur, cfg)
                # theta = 0 leaves the divisor at 1.0 whatever |w| is
                # (0*inf is NaN, and max(1.0, NaN) is 1.0), so skip the norm
                if cfg.theta != 0.0:
                    wx, wy = _cap(wx, wy, _hypot(wx, wy), cfg.theta)
            else:
                wx, wy = _cap(gx, gy, gn, cfg.theta)
                failed = np.zeros(len(x), dtype=bool)
            slope = wx * gx + wy * gy
            fz = 0.5 * (gr * gr + gi * gi)
            ok = ~failed
            gamma = np.empty(len(x))
            gamma[ok], failed[ok] = _armijo(g, x[ok], y[ok], wx[ok], wy[ok], fz[ok], slope[ok], cfg)
            retire(failed, FAILED)
            ok = ~failed
            x = x[ok] - gamma[ok] * wx[ok]
            y = y[ok] - gamma[ok] * wy[ok]
            lane = lane[ok]
            k += 1
    return out_x, out_y, out_k, out_code
