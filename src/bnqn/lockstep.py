"""Lockstep iteration of every ``solvers.Method``.

Every active start (a *lane*) holds its point as one entry of two float64
arrays, x and y, and all lanes take their k-th step in the same sweep.  Each
sweep evaluates g and g' (and g'' for the Hessian methods) by Horner's rule
on the split real/imaginary arrays, tests convergence, divergence and the
iteration cap, and then takes one step on the lanes still running.  BNQN
and NQN share one shift search by mask, BNQN admitting a shift by its
eigenvalues and NQN by its determinant, and then solve with the closed-form
2x2 eigensystem of the chosen shifted Hessian.  The first shift runs on the
whole arrays and its eigensystem serves both the test and the solve; only
the lanes it does not admit try later shifts, and the lanes with a diagonal
Hessian are fixed by index.  BNQN and GD then take the first Armijo trial on
the whole arrays, and only the lanes that reject it backtrack, dropping out
of the loop as they accept.  A sweep compacts its arrays only when some lane
stops or fails.  NQN and Newton optimization (one batched
``numpy.linalg.solve``) take the full step z - w.  Newton's map takes
z - g(z)/g'(z), and random relaxed Newton z - alpha*g(z)/g'(z), with each
lane drawing alpha from its own random stream (``bnqn.streams``).

The kernel reproduces the scalar ``solvers.run`` bit for bit, so it keeps
that loop's exact floating-point operations:

- norms by ``numpy.hypot``, the C library's ``hypot``, which the scalar
  loop also takes (``linalg.hypot``).  It is not always correctly rounded:
  glibc 2.36's differs from ``math.hypot`` by 1 ulp on about 0.6% of pairs
  of comparable size, and where they differ ``math.hypot`` is the closer;
- complex products written out as ``ar*zr - ai*zi`` and ``ar*zi + ai*zr``,
  the form Python's complex multiply uses (numpy's complex128 multiply
  rounds differently), and complex quotients as CPython's ``_Py_c_quot``;
- Python's ``**`` per lane for ``grad_norm**tau``, because numpy's
  vectorized power is not the C library's ``pow``.  The pole test
  |g'| < ``complexpoly.pole_scale(|z|, degree)`` takes numpy's power for
  all lanes at once and decides by Python's ``**`` only the lanes where the
  two powers could disagree on the outcome (``_pole_failed``);
- ``max(1.0, v)`` as ``where(v > 1.0, v, 1.0)`` and ``min(p, q)`` as
  ``where(q < p, q, p)``, which pick the same operand as Python when a value
  is NaN.

Lanes stop when they converge or diverge (the caller classifies them), hit
the cap, or fail the step (no admissible shift, a singular or non-finite
Hessian, an Armijo underflow, or a vanishing derivative), exactly where the
scalar loop would stop them.  Once at most ``_TAIL_LANES`` BNQN or GD lanes
are left, a sweep costs more than stepping them one by one, so each is
finished by ``_finish_lane``: the same step on Python floats and Python
``complex``, which is the arithmetic the scalar loop does.  The other
methods' lanes always stay in the sweep.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .complexpoly import _POLE_TOL, RelaxationDisk, pole_scale
from .linalg import _eig2_system, _eig2_values, hypot
from .objective import PolyModulusObjective
from .solvers import _ARMIJO_FACTOR, _SHRINK_FACTOR, _UNDERFLOW_LIMIT, Method, SolverConfig
from .streams import TrialStreams, _RelaxationDraws, lane_blocks

__all__ = ["CAPPED", "FAILED", "STOPPED", "iterate"]

# the methods that take the Hessian, and those that search by Armijo's rule
_HESSIAN = (Method.BNQN_NEW_VARIANT, Method.NQN, Method.NEWTON_OPT)
_ARMIJO = (Method.BNQN_NEW_VARIANT, Method.BACKTRACKING_GD)

# Lane outcomes.  STOPPED lanes converged or left the divergence radius and
# still need ``classify``; CAPPED and FAILED lanes end Undecided.
STOPPED, CAPPED, FAILED = 0, 1, 2

# BNQN and GD lanes go to ``_finish_lane`` once a sweep starts with at most
# this many.  On one pinned core, a sweep costs nearly the same for 1 to 64
# lanes: 63-72 us for GD on the z^3-1 negative axis, 120-190 us for BNQN at
# degree 3 and 185-270 us at degree 8.  A per-lane step costs 2.0-2.3 us
# and 5.7-7.9 us there, so the kernel wins above about 23-37 lanes.  Whole
# sweeps (z^3-1 BNQN 51x51, GD 9x9, four degree-8 clusters at 25x25) took
# the same time, within noise, with any tail from 24 to 64, and longer with
# 96 on the clusters; GD on z^3-1 at 51x51, whose 25 capped axis lanes run
# 10 000 steps each, took 0.7-0.8 s with a tail of 32 or more against
# 1.0-1.5 s with them in the sweep.
_TAIL_LANES = 48

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


def _quot(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) per lane, as CPython's ``_Py_c_quot``.

    Smith's method: divide through by the part of the divisor of larger
    magnitude.  Where a part of the divisor is NaN, CPython takes neither
    branch and returns NaN; the second branch's ratio is NaN there, so it
    gives NaN too.  A zero divisor, where Python raises, gives NaN here; the
    pole test retires those lanes first.
    """
    real_wins = np.abs(br) >= np.abs(bi)
    # |br| >= |bi|: divide through by br
    ratio = bi / br
    denom = br + bi * ratio
    qr = (ar + ai * ratio) / denom
    qi = (ai - ar * ratio) / denom
    # |bi| > |br|: divide through by bi
    ratio = br / bi
    denom = br * ratio + bi
    return (
        np.where(real_wins, qr, (ar * ratio + ai) / denom),
        np.where(real_wins, qi, (ai * ratio - ar) / denom),
    )


# Half-width, relative to the pole scale, of the band in which _pole_failed
# does not trust numpy's power.  With AVX-512, np.power (not the C library's
# pow) differs from pow by at most 1 ulp, on about 5% of values for
# exponents 7 and 39 and 0.1% for exponent 2, and the product with _POLE_TOL
# keeps the two scales within about 2 ulp (4.4e-16 relative; the scale is at
# least _POLE_TOL, never subnormal).  1e-9 leaves room for a power millions
# of ulp less accurate, and still no lane of the rrn benchmark (0 of 562 524
# pole tests) falls inside it, so the exact test stays rare.
_POLE_BAND = 1e-9
# np.power below this cannot stand for a pow that overflows (pole_scale is
# inf there), and it is finite
_POWER_SURE = 1e300


def _pole_failed(zn, dr, di, degree):
    """|g'| < ``pole_scale(|z|, degree)`` per lane, the pole test of
    ``relaxed_newton_map``.

    numpy's power decides every lane whose |g'| lies outside a relative
    band of ``_POLE_BAND`` around its scale; ``pole_scale`` decides the
    rest, and the lanes where the power is inf, NaN or near overflow.
    """
    size = np.hypot(dr, di)
    power = np.power(1.0 + zn, max(degree - 1, 0))
    scale = _POLE_TOL * power
    failed = size < scale
    unsure = (~((power < _POWER_SURE) & (np.abs(size - scale) > _POLE_BAND * scale))).nonzero()[0]
    if unsure.size:
        exact = np.fromiter(map(pole_scale, zn[unsure].tolist(), repeat(degree)), float, unsure.size)
        failed[unsure] = size[unsure] < exact
    return failed


def _relaxed_step(x, y, zn, gr, gi, dr, di, alpha, degree):
    """z - alpha*(g/g') per lane, or z - g/g' where ``alpha`` is None;
    returns (x, y, failed).

    Mirrors ``relaxed_newton_map`` and ``newton_map_1d``: a lane fails where
    |g'| falls below ``pole_scale(|z|, degree)``, as the scalar step raises
    ``DerivativeVanishes`` there.  Newton's step takes no factor at all:
    alpha = 1 + 0i would not be the identity on inf and NaN (0*inf is NaN).
    """
    failed = _pole_failed(zn, dr, di, degree)
    qr, qi = _quot(gr, gi, dr, di)
    if alpha is None:
        return x - qr, y - qi, failed
    ar, ai = alpha
    return x - (ar * qr - ai * qi), y - (ar * qi + ai * qr), failed


def _armijo_step(g, x, y, gx, gy, gr, gi, wx, wy, failed, cfg: SolverConfig):
    """z - gamma*w per lane with Armijo's gamma; returns (x, y, gr, gi,
    failed), with g = gr + i gi at the new point.

    The first trial, gamma0, runs on every lane at once; only the lanes that
    reject it backtrack, leaving the loop as they accept.  gamma is the same
    on every lane of a pass, so the underflow test fails all the lanes left
    at once.  Lanes already failed skip the search.  The test keeps the
    scalar form ``f(trial) <= f(z) - gamma*slope*_ARMIJO_FACTOR``.
    """
    slope = wx * gx + wy * gy
    fz = 0.5 * (gr * gr + gi * gi)
    gamma = cfg.gamma0
    xn, yn = x - gamma * wx, y - gamma * wy
    gr, gi = _horner(g, xn, yn)
    ok = 0.5 * (gr * gr + gi * gi) <= fz - gamma * slope * _ARMIJO_FACTOR
    todo = (~(ok | failed)).nonzero()[0]
    while todo.size:
        gamma = gamma * _SHRINK_FACTOR
        if gamma < _UNDERFLOW_LIMIT:
            failed[todo] = True
            break
        xt, yt = x[todo] - gamma * wx[todo], y[todo] - gamma * wy[todo]
        vr, vi = _horner(g, xt, yt)
        ok = 0.5 * (vr * vr + vi * vi) <= fz[todo] - gamma * slope[todo] * _ARMIJO_FACTOR
        done = todo[ok]
        xn[done], yn[done], gr[done], gi[done] = xt[ok], yt[ok], vr[ok], vi[ok]
        todo = todo[~ok]
    return xn, yn, gr, gi, failed


def _eig2(a, b, c):
    """Ascending eigenvalues (l1, l2) of [[a, b], [b, c]] per lane, as
    ``linalg._eig2_system`` has them, with the half difference and the
    radius its eigenvectors take; returns (l1, l2, half_diff, r)."""
    half_diff = 0.5 * (a - c)
    r = np.hypot(half_diff, b)
    t = 0.5 * (a + c)
    l1, l2 = t - r, t + r
    # a diagonal matrix keeps its diagonal, in order
    diag = (b == 0.0).nonzero()[0]
    if diag.size:
        ad, cd = a[diag], c[diag]
        ordered = ad <= cd
        l1[diag], l2[diag] = np.where(ordered, ad, cd), np.where(ordered, cd, ad)
    return l1, l2, half_diff, r


def _reflected_solve(gx, gy, a, b, c, l1, l2, half_diff, r):
    """``reflected_direction`` per lane for [[a, b], [b, c]], whose
    ``_eig2`` is (l1, l2, half_diff, r); returns (wx, wy, singular), with
    ``singular`` where an eigenvalue is 0 and the scalar solve raises."""
    # _eig2_system: eigenvector of l2 from the better-conditioned form
    pos = half_diff >= 0.0
    vx = np.where(pos, half_diff + r, b)
    vy = np.where(pos, b, r - half_diff)
    nv = np.hypot(vx, vy)
    u2x, u2y = vx / nv, vy / nv
    u1x, u1y = -u2y, u2x
    flip = (u2x < 0.0) | ((u2x == 0.0) & (u2y < 0.0))
    u2x, u2y = np.where(flip, -u2x, u2x), np.where(flip, -u2y, u2y)
    flip = (u1x < 0.0) | ((u1x == 0.0) & (u1y < 0.0))
    u1x, u1y = np.where(flip, -u1x, u1x), np.where(flip, -u1y, u1y)
    # a diagonal matrix keeps the coordinate axes
    diag = (b == 0.0).nonzero()[0]
    if diag.size:
        ordered = a[diag] <= c[diag]
        u1x[diag] = u2y[diag] = np.where(ordered, 1.0, 0.0)
        u1y[diag] = u2x[diag] = np.where(ordered, 0.0, 1.0)
    c1 = (gx * u1x + gy * u1y) / np.abs(l1)
    c2 = (gx * u2x + gy * u2y) / np.abs(l2)
    return c1 * u1x + c2 * u2x, c1 * u1y + c2 * u2y, (l1 == 0.0) | (l2 == 0.0)


def _admits_bnqn(a, b, c, l1, l2, threshold):
    """``select_delta``'s test per lane: the smallest |eigenvalue| of the
    shifted Hessian [[a, b], [b, c]], whose eigenvalues are l1 <= l2,
    clears ``threshold``."""
    m1, m2 = np.abs(l1), np.abs(l2)
    return np.where(m2 < m1, m2, m1) >= threshold


def _admits_nqn(a, b, c, l1, l2, threshold):
    """``solvers._nqn_step``'s test per lane: the shifted Hessian
    [[a, b], [b, c]] is finite and its determinant ``a*c - b*b`` is not 0.0."""
    return (a * c - b * b != 0.0) & np.isfinite(a) & np.isfinite(b) & np.isfinite(c)


def _shift_search(gx, gy, gn, a, b, c, cfg: SolverConfig, admits):
    """BNQN's (``_admits_bnqn``) or NQN's (``_admits_nqn``) direction per
    lane for the Hessian [[a, b], [b, c]]; returns (wx, wy, failed).

    The first shift that ``admits`` passes, given the shifted Hessian, its
    eigenvalues and kappa*|grad|^tau, wins, and its eigensystem gives the
    reflected solve.  Lanes that no shift passes fail, as do those with a
    zero eigenvalue.
    """
    # |grad|**tau by Python's ``**``; x**1.0 is x for every float (0, inf and
    # NaN included), so the default tau = 1 skips the pow
    scale = gn if cfg.tau == 1.0 else np.fromiter(map(pow, gn.tolist(), repeat(cfg.tau)), float, len(gn))
    threshold = cfg.kappa * scale
    # the first shift takes every lane as it is, with no gather or scatter,
    # and its eigensystem stays for the lanes it wins
    shift = cfg.deltas[0] * scale
    sa, sc = a + shift, c + shift
    eig = _eig2(sa, b, sc)
    chosen = admits(sa, b, sc, *eig[:2], threshold)
    for d in cfg.deltas[1:]:
        todo = (~chosen).nonzero()[0]
        if not todo.size:
            break
        shift = d * scale[todo]
        ap, bp, cp = a[todo] + shift, b[todo], c[todo] + shift
        eigp = _eig2(ap, bp, cp)
        ok = admits(ap, bp, cp, *eigp[:2], threshold[todo])
        win = todo[ok]
        chosen[win] = True
        sa[win], sc[win] = ap[ok], cp[ok]
        for v, vp in zip(eig, eigp):
            v[win] = vp[ok]
    wx, wy, singular = _reflected_solve(gx, gy, sa, b, sc, *eig)
    return wx, wy, ~chosen | singular


def _newton_direction(gx, gy, a, b, c):
    """H^-1 grad per lane for the Hessian H = [[a, b], [b, c]]; returns
    (wx, wy, failed), failed where H is singular or not finite and
    ``solvers._newton_opt_step`` raises.

    One ``numpy.linalg.solve`` of the stack gives what one per matrix gives
    (both call LAPACK's ``gesv``).  A singular matrix makes it raise for the
    whole stack, and then each lane is solved alone, as ``_newton_opt_step`` does.
    """
    h = np.stack([a, b, b, c], axis=-1).reshape(-1, 2, 2)
    grad = np.stack([gx, gy], axis=-1)
    failed = ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c))
    try:
        # numpy 1.24 and 2 both read an (n, 2, 1) right-hand side as matrices
        w = np.linalg.solve(h, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        w = np.empty_like(grad)
        for m in range(len(gx)):
            try:
                w[m] = np.linalg.solve(h[m], grad[m])
            except np.linalg.LinAlgError:
                failed[m] = True
    return w[:, 0], w[:, 1], failed


def _horner1(coeffs, z):
    """Python's complex Horner loop for one point; ``coeffs`` highest first."""
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _lane_direction(gx, gy, gn, a, b, c, cfg: SolverConfig):
    """``select_delta`` then ``reflected_direction`` on floats; None where
    they raise (no admissible shift, or a zero eigenvalue)."""
    scale = gn**cfg.tau
    threshold = cfg.kappa * scale
    for d in cfg.deltas:
        shift = d * scale
        sa, sc = a + shift, c + shift
        l1, l2 = _eig2_values(sa, b, sc)
        if min(abs(l1), abs(l2)) >= threshold:
            break
    else:
        return None
    l1, l2, u1x, u1y, u2x, u2y = _eig2_system(sa, b, sc)
    if l1 == 0.0 or l2 == 0.0:
        return None
    c1 = (gx * u1x + gy * u1y) / abs(l1)
    c2 = (gx * u2x + gy * u2y) / abs(l2)
    return c1 * u1x + c2 * u2x, c1 * u1y + c2 * u2y


def _finish_lane(obj: PolyModulusObjective, hessian: bool, cfg: SolverConfig, x, y, k):
    """Run one BNQN (``hessian``) or GD lane from (x, y), k steps in, to its
    end on Python floats; returns (x, y, steps, outcome).

    This is the scalar loop's arithmetic without its arrays and trace:
    Python's complex Horner and product, ``linalg.hypot`` norms, the
    2x2 eigensystem of ``linalg``, ``max(1.0, v)`` for the theta cap and
    the Armijo test in the form ``f(trial) <= f(z) - gamma*slope*_ARMIJO_FACTOR``.
    |grad| is ``abs(w)`` for w = g'(z)*conj(g(z)): the C ``hypot`` ignores
    signs, so it equals ``hypot(w.real, -w.imag)``, and an overflow gives
    inf as ``linalg.hypot`` does.
    """
    g, dg, ddg = (p.coeffs[::-1] for p in (obj.g, obj.dg, obj.ddg))
    radius = obj.divergence_radius
    theta, gamma0, grad_tol, max_iter = cfg.theta, cfg.gamma0, cfg.grad_tol, cfg.max_iter
    z = complex(x, y)
    gz = _horner1(g, z)
    while True:
        dgz = _horner1(dg, z)
        gc = gz.conjugate()
        w = dgz * gc
        gx, gy = w.real, -w.imag
        try:
            gn = abs(w)
        except OverflowError:
            gn = math.inf
        if gn <= grad_tol or hypot(x, y) > radius:
            return x, y, k, STOPPED
        if k >= max_iter:
            return x, y, k, CAPPED
        if hessian:
            u = _horner1(ddg, z) * gc
            s = dgz.real * dgz.real + dgz.imag * dgz.imag
            direction = _lane_direction(gx, gy, gn, u.real + s, -u.imag, s - u.real, cfg)
            if direction is None:
                return x, y, k, FAILED
            wx, wy = direction
        else:
            wx, wy = gx, gy
        # theta = 0 leaves the divisor at 1.0, as in the sweep
        if theta != 0.0:
            div = max(1.0, theta * (hypot(wx, wy) if hessian else gn))
            wx, wy = wx / div, wy / div
        slope = wx * gx + wy * gy
        fz = 0.5 * (gz.real * gz.real + gz.imag * gz.imag)
        gamma = gamma0
        while True:
            trial = complex(x - gamma * wx, y - gamma * wy)
            gt = _horner1(g, trial)
            if 0.5 * (gt.real * gt.real + gt.imag * gt.imag) <= fz - gamma * slope * _ARMIJO_FACTOR:
                break
            gamma = gamma * _SHRINK_FACTOR
            if gamma < _UNDERFLOW_LIMIT:
                return x, y, k, FAILED
        # the accepted trial is the next point, and g there is already known
        x, y, z, gz = trial.real, trial.imag, trial, gt
        k += 1


def iterate(
    obj: PolyModulusObjective,
    method: Method,
    cfg: SolverConfig,
    x0,
    y0,
    *,
    streams: TrialStreams | None = None,
    relaxation: RelaxationDisk | None = None,
):
    """Run ``method`` from every start (x0[i], y0[i]) in lockstep.

    Returns ``(x, y, steps, outcome)`` arrays: each lane's last point, the
    steps it took, and its outcome code.  Every lane runs to the end; BNQN
    and GD lanes finish one by one in ``_finish_lane`` once a sweep starts
    with at most ``_TAIL_LANES`` of them.

    Random relaxed Newton needs ``streams``, one per lane, in the state
    ``run``'s generator would be in, and the ``relaxation`` disk; its lanes
    run in blocks of ``streams.lane_blocks``.
    """
    x0, y0 = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    if method is not Method.RANDOM_RELAXED_NEWTON_1D:
        return _sweep(obj, method, cfg, x0, y0)
    blocks = []
    for first, stop in lane_blocks(len(x0)):
        draws = _RelaxationDraws(streams, relaxation, first, stop)
        blocks.append(_sweep(obj, method, cfg, x0[first:stop], y0[first:stop], draws))
    return tuple(np.concatenate(v) for v in zip(*blocks))


def _sweep(obj: PolyModulusObjective, method: Method, cfg: SolverConfig, x0, y0, draws=None):
    """``iterate`` for one block of lanes; relaxed lanes take their factors
    from ``draws``."""
    hessian = method in _HESSIAN
    armijo = method in _ARMIJO
    tail = _TAIL_LANES if armijo else 0
    g, dg, ddg = obj.g.coeffs, obj.dg.coeffs, obj.ddg.coeffs
    radius = obj.divergence_radius
    n = len(x0)
    out_x, out_y = x0.copy(), y0.copy()
    out_k = np.zeros(n, dtype=int)
    out_code = np.zeros(n, dtype=np.int8)
    lane = np.arange(n)
    x, y = x0.copy(), y0.copy()
    k = 0

    def retire(sel, code):
        m = lane[sel]
        out_x[m], out_y[m] = x[sel], y[sel]
        out_k[m] = k
        out_code[m] = code

    with np.errstate(all="ignore"):
        gr, gi = _horner(g, x, y)
        while lane.size:
            if lane.size <= tail:
                for m, xm, ym in zip(lane.tolist(), x.tolist(), y.tolist()):
                    out_x[m], out_y[m], out_k[m], out_code[m] = _finish_lane(obj, hessian, cfg, xm, ym, k)
                break
            dr, di = _horner(dg, x, y)
            wr, wi = _times_conj(dr, di, gr, gi)
            gx, gy = wr, -wi
            gn = np.hypot(gx, gy)
            zn = np.hypot(x, y)
            stop = (gn <= cfg.grad_tol) | (zn > radius)
            if k >= cfg.max_iter:
                retire(stop, STOPPED)
                retire(~stop, CAPPED)
                break
            # compact only in the sweeps where some lane stops
            gone = stop.nonzero()[0]
            if gone.size:
                retire(gone, STOPPED)
                keep = (~stop).nonzero()[0]
                x, y, zn, lane, gr, gi, dr, di, gx, gy, gn = (
                    v[keep] for v in (x, y, zn, lane, gr, gi, dr, di, gx, gy, gn)
                )
            if hessian:
                er, ei = _horner(ddg, x, y)
                ur, ui = _times_conj(er, ei, gr, gi)
                s = dr * dr + di * di
                a, b, c = ur + s, -ui, s - ur
            if armijo:
                if hessian:
                    wx, wy, failed = _shift_search(gx, gy, gn, a, b, c, cfg, _admits_bnqn)
                else:
                    wx, wy, failed = gx, gy, np.zeros(len(x), dtype=bool)
                # the theta cap w / max(1.0, theta*|w|); theta = 0 leaves the
                # divisor at 1.0 whatever |w| is (0*inf is NaN, and
                # max(1.0, NaN) is 1.0), so skip the norm
                if cfg.theta != 0.0:
                    div = cfg.theta * (np.hypot(wx, wy) if hessian else gn)
                    div = np.where(div > 1.0, div, 1.0)
                    wx, wy = wx / div, wy / div
                # the Armijo search has evaluated g at every new point
                xn, yn, gr, gi, failed = _armijo_step(g, x, y, gx, gy, gr, gi, wx, wy, failed, cfg)
            elif hessian:
                if method is Method.NQN:
                    wx, wy, failed = _shift_search(gx, gy, gn, a, b, c, cfg, _admits_nqn)
                else:
                    wx, wy, failed = _newton_direction(gx, gy, a, b, c)
                xn, yn = x - wx, y - wy
            else:
                alpha = None if draws is None else draws.take(lane)
                xn, yn, failed = _relaxed_step(x, y, zn, gr, gi, dr, di, alpha, obj.g.degree)
            gone = failed.nonzero()[0]
            if gone.size:
                # a failed lane ends at the point it could not leave
                retire(gone, FAILED)
                keep = (~failed).nonzero()[0]
                xn, yn, lane, gr, gi = (v[keep] for v in (xn, yn, lane, gr, gi))
            x, y = xn, yn
            if not armijo:
                gr, gi = _horner(g, x, y)
            k += 1
    return out_x, out_y, out_k, out_code
