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
of the loop as they accept; once at most ``_TAIL_LANES`` lanes still reject,
each finishes its search alone on Python floats (``_armijo_lane``).  A
sweep compacts its arrays only when some lane stops or fails, and ends as
soon as a compaction leaves no lane.  NQN and Newton optimization (one
batched ``numpy.linalg.solve``) take the full step z - w.  Newton's map
takes z - g(z)/g'(z), and random relaxed Newton z - alpha*g(z)/g'(z), with
each lane's alpha a pure function of (seed, its lane index, the sweep's
step count) (``bnqn.streams``).

The kernel reproduces the scalar ``solvers.run`` bit for bit, so it keeps
that loop's exact floating-point operations:

- norms by ``numpy.hypot``, the C library's ``hypot``, which the scalar
  loop also takes (``linalg.hypot``).  It is not always correctly rounded:
  glibc 2.36's differs from ``math.hypot`` by 1 ulp on about 0.6% of pairs
  of comparable size, and where they differ ``math.hypot`` is the closer;
- complex products written out as ``ar*zr - ai*zi`` and ``ar*zi + ai*zr``,
  the form Python's complex multiply uses (numpy's complex128 multiply
  rounds differently), and complex quotients as CPython's ``_Py_c_quot``;
- ``solvers._shift_scale`` per lane for ``grad_norm**tau``, because
  numpy's vectorized power is not the C library's ``pow``.  The pole test
  |g'| < ``complexpoly.pole_scale(|z|, degree)`` takes no power at all: it
  multiplies by repeated squaring, which rounds alike on floats and arrays,
  so one call serves every lane;
- ``max(1.0, v)`` as ``where(v > 1.0, v, 1.0)`` and ``min(p, q)`` as
  ``where(q < p, q, p)``, which pick the same operand as Python when a value
  is NaN;
- the divergence test |z| > radius on BNQN, GD, NQN and Newton-optimization
  lanes with the exact ``numpy.hypot(x, y)`` only where
  ``fmax(|x|, |y|) > radius/2``.  Elsewhere both parts are finite and at
  most radius/2, so |z| is at most sqrt(2)/2 of the radius, and a hypot
  within 1 ulp stays below it; ``fmax`` skips a NaN part, and a lane with
  an infinite part takes the exact path.  So every lane stops where the
  scalar loop stops it.  Newton and relaxed lanes take |z| on every lane,
  since their pole test reads it;
- "first nonzero component positive" for the eigenvectors of a matrix
  with b != 0 as one comparison each: u2 flips where u2x < 0, and
  u1 = (-u2y, u2x), taken before that flip, where u2y > 0.  Where
  half_diff >= 0, u2x = (half_diff + r)/nv is positive, or +0 or NaN where
  nv overflows, and u2y is b/nv; elsewhere u2x is b/nv and
  u2y = (r - half_diff)/nv is positive, +0 or NaN.  So u2x is never 0
  where u2y < 0, nor u2y 0 where u2x < 0, and the full tests
  (``linalg._eig2_system``) flip the same lanes, NaN lanes included;
- every other operation as the scalar loop writes it, with its operands and
  in its order: ``a*b - c*d + e`` is ``t = a*b; t -= c*d; t += e``.  At a
  few hundred lanes numpy's per-call cost outweighs the arithmetic, so the
  numpy passes meet scalars as read-only 0-d float64 arrays built once
  (``_ZERO``, ``_HALF``, ``_ARMIJO_FACTOR_0D``; the coefficient parts of g,
  g' and g'', ``grad_tol`` and the divergence radius once per call, gamma
  once per pass) instead of converting a Python float on every call,
  and write their intermediates in place (augmented assignment, ``out=``).
  They write only arrays they have just made, never an argument.  The bits
  are the same: a 0-d float64 array is what numpy makes of a Python float,
  an in-place ufunc rounds each element as the allocating one does, and
  where the in-place form swaps the two operands of a sum or a product,
  IEEE arithmetic rounds both orders alike (a NaN's payload aside, which
  no output shows).  Selections stay ``np.where``: masked ufuncs
  (``where=``) ran slower than it at 625 lanes and more.

Lanes stop when they converge or diverge (the caller classifies them), hit
the cap, or fail the step (no admissible shift, a singular or non-finite
Hessian, an Armijo underflow, or a vanishing derivative), exactly where the
scalar loop would stop them.  A Newton or relaxed lane whose point turns
NaN ends CAPPED at once, at (NaN, NaN) after ``max_iter`` steps, which is
where the scalar loop's remaining NaN steps take it.  Once at most
``_TAIL_LANES`` BNQN or GD lanes are left, a sweep costs more than stepping
them one by one, so each is finished by ``_finish_lane``: the same step on
Python floats and Python ``complex``, which is the arithmetic the scalar
loop does, with g, g' and g'' from ``Polynomial.__call__``, the reflected
solve of ``reflected_direction`` (``linalg._eig2_solve``) and the Armijo
search of a sweep's last rejecters (``_armijo_lane``).  A step there whose
accepted trial is the point itself, bit for bit with the signs of zeros,
ends the lane at once, CAPPED after ``max_iter`` steps: no step keeps
state (gamma restarts at gamma0), so the scalar loop repeats it up to the
cap.  The other methods' lanes always stay in the sweep.

Complex conjugation commutes with both methods and leaves F of a real g
unchanged, so a lane on the real axis stays there.  ``_finish_lane`` runs a
lane at y = +0.0 on a g with real coefficients (``Polynomial.is_real``) on
floats alone (``_real_lane``): Horner's rule on the real parts of g,
g' and g'', grad F = (g'g, 0), |grad F| = |g'g|, |z| = |x|, and a diagonal
Hessian whose winning shift s gives the direction g'g/|a + s|.  That is the
complex loop bit for bit: while every value is finite, each imaginary part
of the complex loop is a signed zero, which changes a real part only in the
sign of a zero, and the next y is +0.0 - gamma*(+-0), which is +0.0.  At
the first non-finite value (0*inf is NaN in a complex product) or zero
BNQN direction, the lane goes back to the complex loop where it stands.
A lane at y = -0.0 stays in the complex loop throughout.

The real-axis loop is generated: a ``for`` over the coefficients costs more
than the products and sums it runs, so ``_real_lane_loop`` writes the loop
out as source, with only the branches and the operations that each
coefficient pattern and config shape take.  A sweep that reaches its tail
on a real g picks the loop once (``_real_lane``) and binds it to the real
parts, the divergence radius and the config, and every tail lane at
y = +0.0 takes that one function.  ``functools.lru_cache`` keeps the last
256 compiled loops for the process, a bound, since each pattern of zero and
unit coefficients compiles its own; the key holds ints and bools alone:
each coefficient of g, g' and g'', marked 0 (+-0.0), 1 (exactly 1.0) or 2
(any other value), then BNQN or GD, theta = 0 or not, tau = 1 or not and
gamma0 = 1 or not.  Horner's rule is one statement per coefficient
from acc = c0*x + c1, where the ``for`` loop starts from acc = 0.0: its
first step 0.0*x + c0 is c0 itself at a finite x, since the leading
coefficient of a real g is finite and not 0, and so is k*c_n, that of g'
and g'' (``Polynomial`` trims zeros and ``derivative`` rejects overflow).
A one-coefficient polynomial, such as g'' of a degree-1 g, keeps
0.0*x + c0.  At a non-finite x the two differ, but never in effect: an
entry x that is not finite makes F inf or NaN either way and hands the
lane back, and an Armijo trial that overflows to +-inf gets F = inf or
NaN, which both fail the test, whose bound is below inf (f(z) < inf,
slope >= 0).  The marks drop what cannot change a bit.  A unit leading
coefficient enters as x, not 1.0*x, which is x for every float.  A zero
coefficient adds nothing: adding -0.0 is the identity, and adding +0.0
differs from it only in the sign of a zero sum, which a later nonzero
coefficient absorbs at a finite x, so only a zero g, g' or g'' keeps it.
On the real axis that takes no effect.  A zero g or g' stops the lane,
since g'g = +-0 passes the grad_tol test (or is NaN and hands the lane
back) whatever the signs, and only x leaves the loop; a zero g'' enters
only through u + s and s - u, which give the same value at u = +0.0 and
u = -0.0, s = +0.0 included.  Where
gamma0 = 1 the first Armijo trial, written before the backtracking loop,
is x - wx with the bound f(z) - slope*_ARMIJO_FACTOR, since gamma0*v is v;
the loop then shrinks gamma from gamma0 and tests it for underflow before
each later trial, as ``_armijo_lane`` does.  Once F and g'g are known
finite, |g'g| <= grad_tol and |x| > radius are chained comparisons with no
``abs``, and the step count is the variable of
``for k in range(k, max_iter + 1)``.  The source is built from integers,
bools and fixed names alone: the coefficients and the config values come
in as arguments, so no input value is formatted into code and one
function serves every g of a pattern and every config of a shape.

The sweep's Horner passes are generated the same way (``_horner_pass``):
one per pattern of ``_marks`` of the coefficients' real and imaginary
parts, kept by ``functools.lru_cache`` (the last 256).  Each call chooses
the evaluators of g, g' and, for the Hessian methods, g'' once, before its
first sweep (``_evaluator``): the pass of each polynomial's pattern, bound
to its parts as 0-d arrays, so every g of a pattern, such as the 16 monic
degree-8 polynomials of a cluster8 cycle, shares one pass.  ``_horner``,
the plain loop, stays as the reference the passes are tested against and
is bound instead in the cases listed below, where a pass would not be
exact.  Where ``_horner`` starts from acc = 0j, a pass starts at the leading
coefficient; it takes z itself for a product by a unit part, and it leaves
out every product by a zero part and every sum of a zero part except the
constant term's; a sum that would open with 0*v - t opens with -t.  For
z^3 - 1 that is 14, 10 and 4 numpy calls for g, g' and g'' where
``_horner`` makes 32, 24 and 16.  The pass is exact wherever its values are
read:

- At a finite z each left-out operation changes at most the sign of a zero:
  0*v is a signed zero, 1.0*v is v, v + -0.0 is v, and v + 0.0 differs
  from v only where v is a zero.  Products and sums carry such a difference
  only as the sign of a zero (0*inf is NaN for either sign), and the
  constant term's sum erases it: a zero plus +0.0 is +0.0, and a zero plus
  a nonzero c is c.  Only a -0.0 part keeps the sign, so a polynomial
  whose constant term has a -0.0 part takes ``_horner``.  The choice reads
  the coefficients' signs, not their values: 0 - 0i == 0j.
- At a z with an infinite or NaN part ``_horner`` gives NaN + NaN i, since
  its first step multiplies 0 by z, while a pass may keep a part finite: a
  degree-1 g at (NaN, 1) gives (NaN, finite).  At a NaN part with no
  infinite one, some part of g is NaN, so g'g, F, the Hessian and the
  Armijo bound are NaN either way, and a Newton or relaxed lane is retired
  as NaN.  A lane with an infinite part has |z| = inf and stops on
  |z| > radius before any of its values is read.  The radius is inf where
  the Cauchy bound overflows (1e155 + 1e-160 z), and there the call binds
  ``_horner`` for g, g' and g''.
- An Armijo trial with a non-finite part gets F = inf or NaN from the pass
  and NaN from ``_horner``, as from the scalar loop.  Both fail a finite
  bound; under a bound of +inf, which F(z) = inf with a finite slope
  gives, ``_armijo_trial`` rejects such trials outright.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat

import numpy as np

from .complexpoly import pole_scale
from .linalg import _eig2_solve, _eig2_system, hypot
from .objective import PolyModulusObjective
from .solvers import _ARMIJO_FACTOR, _SHRINK_FACTOR, _UNDERFLOW_LIMIT, Method, SolverConfig, _shift_scale
from .streams import check_bounds, relaxation_factors, seed_key

__all__ = ["CAPPED", "FAILED", "STOPPED", "iterate"]

# the methods that take the Hessian, and those that search by Armijo's rule
_HESSIAN = (Method.BNQN_NEW_VARIANT, Method.NQN, Method.NEWTON_OPT)
_ARMIJO = (Method.BNQN_NEW_VARIANT, Method.BACKTRACKING_GD)

# Lane outcomes.  STOPPED lanes converged or left the divergence radius and
# still need ``classify``; CAPPED and FAILED lanes end Undecided.
STOPPED, CAPPED, FAILED = 0, 1, 2

# BNQN and GD lanes go to ``_finish_lane`` once a sweep starts with at most
# this many.  On one pinned core (numpy 2.4), one sweep costs nearly the same
# for 8 to 64 lanes: 35-42 us for GD on the z^3-1 negative axis at y = -0.0,
# 102-116 us for BNQN at degree 3 and 141-169 us at degree 8.  A 1-lane sweep
# costs more (62, 146 and 209 us), since numpy takes a slow path for 1-element
# arrays, in place more so; the tail keeps BNQN and GD sweeps from running one
# lane.  On floats, a step in the complex loop costs 2.2 us for GD (z^3-1 from
# -2 - 0i) and 5.7-5.9 us for BNQN on a degree-8 cluster, a degree-8 Armijo
# trial 0.50-0.52 us, and a GD step on the real axis of a real g
# (``_real_lane``, z^3-1 from -2) 0.27 us.  GD lanes in the complex loop (z^3-1
# negative axis at y = -0.0, 2000 steps) ran faster one by one than in the
# sweep at 16 lanes and slower at 24.  The same bound sends a sweep's last
# Armijo rejecters to ``_armijo_lane``.  In alternating whole cycles, the z^3-1
# BNQN half sweep (51x51) ran fastest with 48: 24 and 32 beat it in 14 of 60
# alternations and 64 in 6 of 60; on the degree-8 clusters of
# basin-cluster8-bnqn (seeds 3, 7 and 41), 32 and 64 each beat 48 in 11 of 24,
# within noise.  GD on z^3-1 at 51x51, whose 25 capped axis lanes run 10 000
# steps each on floats, takes 0.18-0.19 s against 0.56-0.68 s with them in the
# sweep.
_TAIL_LANES = 48


def _scalar(v):
    """v as a read-only 0-d float64 array, the operand a Python float becomes
    on every ufunc call that meets it."""
    v = np.array(v, dtype=float)
    v.setflags(write=False)
    return v


_ZERO, _HALF, _ONE = _scalar(0.0), _scalar(0.5), _scalar(1.0)
_ARMIJO_FACTOR_0D = _scalar(_ARMIJO_FACTOR)

def _horner(parts, zr, zi):
    """Python's complex Horner loop (acc = acc*z + c from acc = 0j), per lane,
    on a polynomial's coefficient parts as ``_evaluator`` binds them."""
    ar = ai = _ZERO
    for cr, ci in parts:
        nr = ar * zr
        nr -= ai * zi
        nr += cr
        ni = ar * zi
        ni += ai * zr
        ni += ci
        ar, ai = nr, ni
    return ar, ai


def _evaluator(poly, radius):
    """``poly`` at zr + i zi per lane: its compiled ``_horner_pass``, or
    ``_horner`` where the divergence ``radius`` is infinite or a
    constant-term part is -0.0 (see the module docstring), bound to its
    coefficients' (c.real, c.imag) parts as 0-d arrays, highest degree
    first."""
    cs = poly.coeffs[::-1]
    parts = [(_scalar(c.real), _scalar(c.imag)) for c in cs]
    if radius == math.inf or any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in (cs[-1].real, cs[-1].imag)):
        return functools.partial(_horner, parts)
    return functools.partial(_horner_pass(_marks(c.real for c in cs), _marks(c.imag for c in cs)), parts)


def _times_conj(pr, pi, gr, gi):
    """p * conj(g) with Python's complex product."""
    ngi = np.negative(gi)
    re = pr * gr
    re -= pi * ngi
    ngi *= pr
    ngi += pi * gr
    return re, ngi


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
    denom = bi * ratio
    denom += br
    qr = ai * ratio
    qr += ar
    qr /= denom
    qi = ar * ratio
    np.subtract(ai, qi, out=qi)
    qi /= denom
    # |bi| > |br|: divide through by bi
    np.divide(br, bi, out=ratio)
    np.multiply(br, ratio, out=denom)
    denom += bi
    pr = ar * ratio
    pr += ai
    pr /= denom
    pi = ai * ratio
    pi -= ar
    pi /= denom
    return np.where(real_wins, qr, pr), np.where(real_wins, qi, pi)


def _relaxed_step(x, y, zn, gr, gi, dr, di, alpha, degree):
    """z - alpha*(g/g') per lane, or z - g/g' where ``alpha`` is None;
    returns (x, y, failed).

    Mirrors ``relaxed_newton_map`` and ``newton_map_1d``: a lane fails where
    |g'| falls below ``pole_scale(|z|, degree)``, as the scalar step raises
    ``DerivativeVanishes`` there.  Newton's step takes no factor at all:
    alpha = 1 + 0i would not be the identity on inf and NaN (0*inf is NaN).
    """
    failed = np.hypot(dr, di) < pole_scale(zn, degree)
    qr, qi = _quot(gr, gi, dr, di)
    if alpha is not None:
        ar, ai = alpha
        # alpha * q, the product written out
        pr = ar * qr
        pr -= ai * qi
        qi *= ar
        qi += ai * qr
        qr = pr
    return np.subtract(x, qr, out=qr), np.subtract(y, qi, out=qi), failed


def _armijo_lane(g, x, y, wx, wy, fz, slope, gamma):
    """Armijo's search for one lane on Python floats from the trial
    ``gamma`` on, with g the ``Polynomial``; returns (trial, g(trial),
    F(trial)) at the accepted trial, or None where gamma underflows."""
    while True:
        trial = complex(x - gamma * wx, y - gamma * wy)
        gt = g(trial)
        ft = 0.5 * (gt.real * gt.real + gt.imag * gt.imag)
        if ft <= fz - gamma * slope * _ARMIJO_FACTOR:
            return trial, gt, ft
        gamma = gamma * _SHRINK_FACTOR
        if gamma < _UNDERFLOW_LIMIT:
            return None


def _half_square(gr, gi):
    """F = 0.5*(gr*gr + gi*gi) per lane, at g = gr + i gi."""
    f = gr * gr
    f += gi * gi
    f *= _HALF
    return f


def _armijo_trial(g_pass, gamma, x, y, wx, wy, fz, slope):
    """The Armijo trial z - gamma*w per lane, with ``gamma`` 0-d and g's
    ``_evaluator``; returns (xt, yt, gr, gi, ok), with g(trial) = gr + i gi
    and ``ok`` where ``f(trial) <= f(z) - gamma*slope*_ARMIJO_FACTOR``."""
    xt = gamma * wx
    np.subtract(x, xt, out=xt)
    yt = gamma * wy
    np.subtract(y, yt, out=yt)
    bound = gamma * slope
    bound *= _ARMIJO_FACTOR_0D
    np.subtract(fz, bound, out=bound)
    gr, gi = g_pass(xt, yt)
    ok = _half_square(gr, gi) <= bound
    # F is NaN at a trial with a non-finite part in the scalar loop, so no
    # bound passes it, where a pass may give F = inf (see the module
    # docstring); only a bound of +inf passes inf, and fmax skips NaN bounds
    if not np.fmax.reduce(bound) < math.inf:
        ok &= np.isfinite(xt) & np.isfinite(yt)
    return xt, yt, gr, gi, ok


def _armijo_step(g, g_pass, x, y, gx, gy, gr, gi, wx, wy, failed, cfg: SolverConfig):
    """z - gamma*w per lane with Armijo's gamma, with g the ``Polynomial``
    and ``g_pass`` its ``_evaluator``; returns
    (x, y, gr, gi, failed), with g = gr + i gi at the new point.

    The first trial, gamma0, runs on every lane at once; only the lanes that
    reject it backtrack, leaving the loop as they accept.  gamma is the same
    on every lane of a pass, so the underflow test fails all the lanes left
    at once.  Once at most ``_TAIL_LANES`` lanes are left, a numpy pass costs
    more than their trials on Python floats, so each finishes its search alone
    in ``_armijo_lane``.  Lanes already failed skip the search.  The test
    keeps the scalar form ``f(trial) <= f(z) - gamma*slope*_ARMIJO_FACTOR``.
    """
    slope = wx * gx
    slope += wy * gy
    fz = _half_square(gr, gi)
    gamma = cfg.gamma0
    xn, yn, gr, gi, ok = _armijo_trial(g_pass, np.array(gamma), x, y, wx, wy, fz, slope)
    ok |= failed
    todo = (~ok).nonzero()[0]
    while todo.size:
        gamma = gamma * _SHRINK_FACTOR
        if gamma < _UNDERFLOW_LIMIT:
            failed[todo] = True
            break
        if todo.size <= _TAIL_LANES:
            lanes = (v[todo].tolist() for v in (x, y, wx, wy, fz, slope))
            for m, *lane in zip(todo.tolist(), *lanes):
                accepted = _armijo_lane(g, *lane, gamma)
                if accepted is None:
                    failed[m] = True
                else:
                    trial, gt, _ = accepted
                    xn[m], yn[m], gr[m], gi[m] = trial.real, trial.imag, gt.real, gt.imag
            break
        lanes = (v[todo] for v in (x, y, wx, wy, fz, slope))
        xt, yt, vr, vi, ok = _armijo_trial(g_pass, np.array(gamma), *lanes)
        done = todo[ok]
        xn[done], yn[done], gr[done], gi[done] = xt[ok], yt[ok], vr[ok], vi[ok]
        todo = todo[~ok]
    return xn, yn, gr, gi, failed


def _eig2(a, b, c):
    """Ascending eigenvalues (l1, l2) of [[a, b], [b, c]] per lane, as
    ``linalg._eig2_system`` has them, with the half difference and the
    radius its eigenvectors take and the lanes where b is 0; returns
    (l1, l2, half_diff, r, diag)."""
    half_diff = a - c
    half_diff *= _HALF
    r = np.hypot(half_diff, b)
    l2 = a + c
    l2 *= _HALF
    l1 = l2 - r
    l2 += r
    # a diagonal matrix keeps its diagonal, in order
    diag = (b == _ZERO).nonzero()[0]
    if diag.size:
        ad, cd = a[diag], c[diag]
        ordered = ad <= cd
        l1[diag], l2[diag] = np.where(ordered, ad, cd), np.where(ordered, cd, ad)
    return l1, l2, half_diff, r, diag


def _reflected_solve(gx, gy, a, b, c, l1, l2, half_diff, r, diag):
    """``reflected_direction`` per lane for [[a, b], [b, c]], whose
    ``_eig2`` is (l1, l2, half_diff, r, diag); returns (wx, wy, singular),
    with ``singular`` where an eigenvalue is 0 and the scalar solve raises."""
    # _eig2_system: eigenvector of l2 from the better-conditioned form
    pos = half_diff >= _ZERO
    u2x = np.where(pos, half_diff + r, b)
    u2y = np.where(pos, b, r - half_diff)
    nv = np.hypot(u2x, u2y)
    u2x /= nv
    u2y /= nv
    # "first nonzero component positive" for u2 and for u1 = (-u2y, u2x):
    # off the diagonal u2x is never 0 where u2y < 0, nor u2y 0 where
    # u2x < 0, so one comparison decides each (see the module docstring)
    neg_x, neg_y = np.negative(u2x), np.negative(u2y)
    flip = u2y > _ZERO
    u1x, u1y = np.where(flip, u2y, neg_y), np.where(flip, neg_x, u2x)
    flip = u2x < _ZERO
    u2x, u2y = np.where(flip, neg_x, u2x), np.where(flip, neg_y, u2y)
    # a diagonal matrix keeps the coordinate axes
    if diag.size:
        ordered = a[diag] <= c[diag]
        u1x[diag] = u2y[diag] = np.where(ordered, _ONE, _ZERO)
        u1y[diag] = u2x[diag] = np.where(ordered, _ZERO, _ONE)
    c1 = gx * u1x
    c1 += gy * u1y
    c1 /= np.abs(l1)
    c2 = gx * u2x
    c2 += gy * u2y
    c2 /= np.abs(l2)
    # c1*u1 + c2*u2, written into the eigenvectors
    np.multiply(c1, u1x, out=u1x)
    u1x += np.multiply(c2, u2x, out=u2x)
    np.multiply(c1, u1y, out=u1y)
    u1y += np.multiply(c2, u2y, out=u2y)
    singular = l1 == _ZERO
    singular |= l2 == _ZERO
    return u1x, u1y, singular


def _admits_bnqn(a, b, c, l1, l2, threshold):
    """``select_delta``'s test per lane: the smallest |eigenvalue| of the
    shifted Hessian [[a, b], [b, c]], whose eigenvalues are l1 <= l2,
    clears ``threshold``."""
    m1, m2 = np.abs(l1), np.abs(l2)
    return np.where(m2 < m1, m2, m1) >= threshold


def _admits_nqn(a, b, c, l1, l2, threshold):
    """``solvers._nqn_step``'s test per lane: the shifted Hessian
    [[a, b], [b, c]] is finite and its determinant ``a*c - b*b`` is not 0.0."""
    det = a * c
    det -= b * b
    return (det != _ZERO) & np.isfinite(a) & np.isfinite(b) & np.isfinite(c)


def _shift_search(gx, gy, gn, a, b, c, cfg: SolverConfig, admits):
    """BNQN's (``_admits_bnqn``) or NQN's (``_admits_nqn``) direction per
    lane for the Hessian [[a, b], [b, c]]; returns (wx, wy, failed).

    The first shift that ``admits`` passes, given the shifted Hessian, its
    eigenvalues and kappa*|grad|^tau, wins, and its eigensystem gives the
    reflected solve.  Lanes that no shift passes fail, as do those with a
    zero eigenvalue.
    """
    # |grad|**tau as the scalar step takes it; x**1.0 is x for every float
    # (0, inf and NaN included), so the default tau = 1 skips the pow
    scale = gn if cfg.tau == 1.0 else np.fromiter(map(_shift_scale, gn.tolist(), repeat(cfg.tau)), float, len(gn))
    threshold = cfg.kappa * scale
    # the first shift takes every lane as it is, with no gather or scatter,
    # and its eigensystem stays for the lanes it wins
    shift = cfg.deltas[0] * scale
    sa = a + shift
    sc = np.add(c, shift, out=shift)
    eig = _eig2(sa, b, sc)
    chosen = admits(sa, b, sc, *eig[:2], threshold)
    for d in cfg.deltas[1:]:
        todo = (~chosen).nonzero()[0]
        if not todo.size:
            break
        shift = d * scale[todo]
        ap, bp, cp = a[todo], b[todo], c[todo]
        ap += shift
        cp += shift
        eigp = _eig2(ap, bp, cp)
        ok = admits(ap, bp, cp, *eigp[:2], threshold[todo])
        win = todo[ok]
        chosen[win] = True
        sa[win], sc[win] = ap[ok], cp[ok]
        # the first shift's diag index serves: b is the same at every shift
        for v, vp in zip(eig[:4], eigp):
            v[win] = vp[ok]
    wx, wy, singular = _reflected_solve(gx, gy, sa, b, sc, *eig)
    singular |= ~chosen
    return wx, wy, singular


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


def _lane_direction(gx, gy, gn, a, b, c, cfg: SolverConfig):
    """``select_delta`` then ``reflected_direction`` on floats; None where
    they raise (no admissible shift, or a zero eigenvalue).  The winning
    shift's eigensystem goes to ``linalg._eig2_solve``, the solve that
    ``reflected_direction`` takes."""
    # x**1.0 is x for every float, so tau = 1 skips the pow
    scale = gn if cfg.tau == 1.0 else _shift_scale(gn, cfg.tau)
    threshold = cfg.kappa * scale
    for d in cfg.deltas:
        shift = d * scale
        system = _eig2_system(a + shift, b, c + shift)
        if min(abs(system[0]), abs(system[1])) >= threshold:
            return _eig2_solve(gx, gy, system)
    return None


# The body of the real-axis loop (``_real_lane``), compiled by
# ``_real_lane_loop`` once per coefficient pattern and config shape.  The placeholders are filled from
# integers and fixed names only: {unpack} binds the coefficients, highest
# degree first, to g0, g1, ... (g), d0, ... (g') and e0, ... (g''), {g_x},
# {dg_x} and {g_trial} are Horner's rule as one statement per coefficient,
# {direction} sets the step direction wx (``_BNQN_DIRECTION``, or g'g for
# GD), capped by theta where theta != 0, and {gamma0} is the first Armijo
# trial's gamma, left out where gamma0 = 1.  Past the loop's first test F
# and g'g are finite, and so is x (F is inf or NaN at any other x), so
# -grad_tol <= g'g <= grad_tol is |g'g| <= grad_tol and
# -radius <= x <= radius is |x| <= radius.  The first trial comes before the
# backtracking loop, which then shrinks gamma and tests it for underflow
# before each later trial, as the scalar search does.
_REAL_LANE_SOURCE = """\
def real_lane(g, dg, ddg, radius, cfg, x, k):
    {unpack}
    theta, gamma0, grad_tol, max_iter = cfg.theta, cfg.gamma0, cfg.grad_tol, cfg.max_iter
    tau, kappa, deltas = cfg.tau, cfg.kappa, cfg.deltas
    armijo_factor, shrink, underflow, inf = _ARMIJO_FACTOR, _SHRINK_FACTOR, _UNDERFLOW_LIMIT, math.inf
    neg_tol, neg_radius = -grad_tol, -radius
    {g_x}
    fz = 0.5 * (gz * gz)
    for k in range(k, max_iter + 1):
        {dg_x}
        gx = dgz * gz
        if not (fz < inf and -inf < gx < inf):
            return x, k, None
        if neg_tol <= gx <= grad_tol or not neg_radius <= x <= radius:
            return x, k, STOPPED
        if k == max_iter:
            return x, k, CAPPED
{direction}
        slope = wx * gx
        trial = x - {gamma0}wx
        {g_trial}
        ft = 0.5 * (gt * gt)
        if not ft <= fz - {gamma0}slope * armijo_factor:
            gamma = gamma0
            while True:
                gamma = gamma * shrink
                if gamma < underflow:
                    return x, k, FAILED
                trial = x - gamma * wx
                {g_trial}
                ft = 0.5 * (gt * gt)
                if ft <= fz - gamma * slope * armijo_factor:
                    break
        # a step that leaves x as it is, zero sign included, repeats to the cap
        if trial == x and math.copysign(1.0, trial) == math.copysign(1.0, x):
            return x, max_iter, CAPPED
        x, gz, fz = trial, gt, ft
"""

# BNQN's direction g'g/|a + s| for the diagonal Hessian a = g''g + g'^2,
# c = g'^2 - g''g and the first shift s that clears the bar, with {scale}
# |g'g| itself where tau = 1 (x**1.0 is x for every float)
_BNQN_DIRECTION = """\
        {ddg_x}
        if not -inf < u < inf:
            return x, k, None
        u *= gz
        s = dgz * dgz
        ha, hc = u + s, s - u
        scale = {scale}
        threshold = kappa * scale
        for d in deltas:
            shift = d * scale
            sa, sc = ha + shift, hc + shift
            # in this order: min keeps its first argument where the other
            # is NaN, as _eig2_system orders a NaN a + s second
            if min(abs(sc), abs(sa)) >= threshold:
                break
        else:
            return x, k, FAILED
        if sa == 0.0 or sc == 0.0:
            return x, k, FAILED
        wx = gx / abs(sa)
        if not 0.0 < abs(wx) < inf:
            return x, k, None
"""


def _marks(coeffs):
    """Each coefficient's (or part's) mark in the keys of ``_real_lane_loop``
    and ``_horner_pass``: 0 for +-0.0, 1 for exactly 1.0 and 2 for any other
    value."""
    return tuple(0 if c == 0.0 else 1 if c == 1.0 else 2 for c in coeffs)


def _horner_source(acc, prefix, marks, var):
    """Horner's rule on the coefficients prefix0, prefix1, ... of these
    ``_marks`` as one statement each on one line, from acc = prefix0*var +
    prefix1: the step from acc = 0.0 gives prefix0 itself at a finite var
    where prefix0 is not 0 (see the module docstring).  One coefficient
    keeps that step.  A unit prefix0 enters as var, and a zero coefficient
    adds nothing (see the module docstring)."""
    terms = [f" + {prefix}{i}" if mark else "" for i, mark in enumerate(marks)]
    if len(marks) == 1:
        return f"{acc} = 0.0 * {var}{terms[0]}"
    lead = var if marks[0] == 1 else f"{prefix}0 * {var}"
    steps = [f"{acc} = {lead}{terms[1]}"]
    steps += [f"{acc} = {acc} * {var}{terms[i]}" for i in range(2, len(marks))]
    return "; ".join(steps)


def _sum_source(acc, terms):
    """Statements setting ``acc`` to the sum of ``terms`` from the left, each
    a sign ('+' or '-') and an expression: a product ``c * z``, an argument
    ``zr`` or ``zi``, or a coefficient part.  ``acc`` is written in place
    only once it holds an array made here, so no argument is written or
    returned."""
    (sign, head), *rest = terms
    if " * " in head:
        steps = [f"{acc} = {head}"] + ([f"np.negative({acc}, out={acc})"] if sign == "-" else [])
    elif sign == "-":
        steps = [f"{acc} = np.negative({head})"]
    elif rest:
        sign, term = rest.pop(0)
        steps = [f"{acc} = np.{'add' if sign == '+' else 'subtract'}({head}, {term})"]
    else:
        steps = [f"{acc} = {head}"]
    return steps + [f"{acc} {sign}= {term}" for sign, term in rest]


@functools.lru_cache(maxsize=256)
def _horner_pass(real_marks, imag_marks):
    """``_horner`` for coefficients whose real and imaginary parts have these
    ``_marks``, highest degree first, compiled from generated source; it
    takes the parts as ``_evaluator`` binds them and the lane arrays zr and
    zi.  It starts at the leading coefficient, takes z itself for a product by a
    unit part, and leaves out every product by a zero part and every sum of
    a zero part but the constant term's (see the module docstring).  The
    source is built from integers and fixed names alone, so one pass serves
    polynomial of a pattern."""
    n = len(real_marks)
    names = [(f"c{k}r", f"c{k}i") for k in range(n)]

    def times(k, j, z):
        mark = (real_marks, imag_marks)[j][k]
        return [] if mark == 0 else [z] if mark == 1 else [f"{names[k][j]} * {z}"]

    def plus(k, j):
        mark = (real_marks, imag_marks)[j][k]
        return [("+", names[k][j])] if mark or k == n - 1 else []

    if n == 1:
        body = ["ar = np.full_like(zr, c0r)", "ai = np.full_like(zi, c0i)"]
    else:
        real = [("+", t) for t in times(0, 0, "zr")] + [("-", t) for t in times(0, 1, "zi")] + plus(1, 0)
        imag = [("+", t) for t in times(0, 0, "zi")] + [("+", t) for t in times(0, 1, "zr")] + plus(1, 1)
        body = _sum_source("ar", real) + _sum_source("ai", imag)
    for k in range(2, n):
        body += ["nr = ar * zr", "nr -= ai * zi", *(f"nr += {c}" for _, c in plus(k, 0))]
        body += ["ni = ar * zi", "ni += ai * zr", *(f"ni += {c}" for _, c in plus(k, 1)), "ar, ai = nr, ni"]
    unpack = "".join(f"({r}, {i}), " for r, i in names) + "= parts"
    source = "\n    ".join(["def horner(parts, zr, zi):", unpack, *body, "return ar, ai"])
    namespace = {}
    exec(compile(source, f"<Horner pass, {n} coefficients>", "exec"), globals(), namespace)
    return namespace["horner"]


@functools.lru_cache(maxsize=256)
def _real_lane_loop(g_marks, dg_marks, ddg_marks, hessian, theta_cap, unit_tau, unit_gamma):
    """The real-axis loop (``_real_lane``) for a g, g' and g'' whose
    coefficients have these ``_marks``, BNQN's (``hessian``) or GD's, with
    the theta cap where ``theta_cap``, the power |g'g|**tau where not
    ``unit_tau`` and the first Armijo trial's gamma0 where not
    ``unit_gamma``, compiled from ``_REAL_LANE_SOURCE`` (see the module
    docstring).  The key holds ints
    and bools alone, so no coefficient or config value reaches the source.
    Horner's rule takes one statement per coefficient, not one nested
    expression: the parser rejects more than 200 nested parentheses, and a
    g may have more coefficients."""
    unpack = "; ".join(
        "".join(f"{prefix}{i}, " for i in range(len(marks))) + f"= {seq}"
        for prefix, marks, seq in (("g", g_marks, "g"), ("d", dg_marks, "dg"), ("e", ddg_marks, "ddg"))
    )
    if hessian:
        scale = "abs(gx)" if unit_tau else "_shift_scale(abs(gx), tau)"
        direction = _BNQN_DIRECTION.format(ddg_x=_horner_source("u", "e", ddg_marks, "x"), scale=scale)
    else:
        direction = "        wx = gx\n"
    if theta_cap:
        direction += "        wx = wx / max(1.0, theta * abs(wx))\n"
    source = _REAL_LANE_SOURCE.format(
        unpack=unpack,
        g_x=_horner_source("gz", "g", g_marks, "x"),
        dg_x=_horner_source("dgz", "d", dg_marks, "x"),
        direction=direction.rstrip("\n"),
        gamma0="" if unit_gamma else "gamma0 * ",
        g_trial=_horner_source("gt", "g", g_marks, "trial"),
    )
    namespace = {}
    exec(compile(source, f"<real-axis lane loop, {len(g_marks)} coefficients>", "exec"), globals(), namespace)
    return namespace["real_lane"]


def _real_lane(obj: PolyModulusObjective, hessian: bool, cfg: SolverConfig):
    """``_finish_lane``'s loop for lanes at (x, +0.0) on a g with real
    coefficients, on Python floats alone.

    It is ``_real_lane_loop``'s function for the ``_marks`` of the real
    parts of g, g' and g'', BNQN (``hessian``) or GD and the shape of
    ``cfg``, bound to those parts, highest degree first, the divergence
    radius and ``cfg``.  Called with (x, k), it returns (x, steps, outcome)
    with the lane ended at (x, +0.0), or (x, k, None) where the complex loop
    must go on from (x, k).  The Hessian is diagonal, a = g''g + g'^2 and
    c = g'^2 - g''g, and the reflected solve of the winning shift s gives
    the direction g'g/|a + s|.  Each value is the complex loop's real part
    (see the module docstring) while the values are finite and g and g' are
    not 0, where the lane stops.  So a non-finite F, |grad|, g'' or BNQN
    direction hands the lane back, since 0*inf makes a NaN of a zero
    imaginary part; so does a zero BNQN direction, which the complex loop
    may sign by a signed zero, and which at x = +-0 sets the sign of the
    next x.  A step that leaves x as it is, zero sign included, ends the
    lane CAPPED at ``max_iter`` steps.
    """
    parts = [[c.real for c in reversed(p.coeffs)] for p in (obj.g, obj.dg, obj.ddg)]
    loop = _real_lane_loop(*map(_marks, parts), hessian, cfg.theta != 0.0, cfg.tau == 1.0, cfg.gamma0 == 1.0)
    return functools.partial(loop, *parts, obj.divergence_radius, cfg)


def _same_point(z, x, y):
    """z is complex(x, y) bit for bit, the signs of zeros included."""
    return (
        z == complex(x, y)
        and math.copysign(1.0, z.real) == math.copysign(1.0, x)
        and math.copysign(1.0, z.imag) == math.copysign(1.0, y)
    )


def _finish_lane(obj: PolyModulusObjective, hessian: bool, cfg: SolverConfig, x, y, k, real_lane):
    """Run one BNQN (``hessian``) or GD lane from (x, y), k steps in, to its
    end on Python floats; returns (x, y, steps, outcome).

    A lane at y = +0.0 on a real g stays on the real axis, and
    ``real_lane``, ``_real_lane``'s loop for ``obj``, ``hessian`` and
    ``cfg`` (None on a complex g), runs it there for as long as its values
    are finite.  A lane at y = -0.0 keeps the complex loop, where the sign
    of the next y is the sign of a zero product.  In both loops a step whose
    accepted trial is the point itself, bit for bit, ends the lane CAPPED
    at ``max_iter`` steps (see the module docstring).

    This is the scalar loop's arithmetic without its arrays and trace: g,
    g' and g'' by ``Polynomial.__call__``, Python's complex product,
    |grad| = ``hypot(gx, gy)`` and |z| = ``hypot(x, y)`` as ``run``'s
    ``_norm`` takes them (``linalg.hypot``), the 2x2 eigensystem and
    reflected solve of ``linalg`` (``_lane_direction``), ``max(1.0, v)`` for
    the theta cap and ``_armijo_lane`` from gamma0, whose F at the accepted
    trial is the next step's f(z) (the same expression on the same g).
    """
    if real_lane is not None and y == 0.0 and math.copysign(1.0, y) == 1.0:
        x, k, outcome = real_lane(x, k)
        if outcome is not None:
            return x, y, k, outcome
    g, dg, ddg, radius = obj.g, obj.dg, obj.ddg, obj.divergence_radius
    theta, gamma0, grad_tol, max_iter = cfg.theta, cfg.gamma0, cfg.grad_tol, cfg.max_iter
    z = complex(x, y)
    gz = g(z)
    fz = 0.5 * (gz.real * gz.real + gz.imag * gz.imag)
    while True:
        dgz = dg(z)
        gc = gz.conjugate()
        w = dgz * gc
        gx, gy = w.real, -w.imag
        gn = hypot(gx, gy)
        if gn <= grad_tol or hypot(x, y) > radius:
            return x, y, k, STOPPED
        if k >= max_iter:
            return x, y, k, CAPPED
        if hessian:
            u = ddg(z) * gc
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
        accepted = _armijo_lane(g, x, y, wx, wy, fz, wx * gx + wy * gy, gamma0)
        if accepted is None:
            return x, y, k, FAILED
        # the accepted trial is the next point, and g and F there are known
        z, gz, fz = accepted
        if _same_point(z, x, y):
            return x, y, max_iter, CAPPED
        x, y = z.real, z.imag
        k += 1


def iterate(obj: PolyModulusObjective, method: Method, cfg: SolverConfig, x0, y0):
    """Run ``method`` from every start (x0[i], y0[i]) in lockstep.

    Returns ``(x, y, steps, outcome)`` arrays: each lane's last point, the
    steps it took, and its outcome code.  Every lane runs to the end; BNQN
    and GD lanes finish one by one in ``_finish_lane`` once a sweep starts
    with at most ``_TAIL_LANES`` of them.

    Random relaxed Newton runs lane i as trial i: it draws its factor at
    step k as ``run(..., trial=i)`` does, from the disk |alpha - 1| <=
    cfg.rho.  A ``ValueError`` names starts that are not two 1-D arrays of
    one length, and a relaxed ``cfg.max_iter`` past ``streams.check_bounds``.
    """
    x0, y0 = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    if x0.ndim != 1 or x0.shape != y0.shape:
        raise ValueError(f"x0 and y0 must be 1-D and of one length, got shapes {x0.shape} and {y0.shape}")
    relaxed = method is Method.RANDOM_RELAXED_NEWTON_1D
    if relaxed:
        check_bounds(cfg.max_iter)
        key = seed_key(cfg.seed)
    hessian = method in _HESSIAN
    armijo = method in _ARMIJO
    newton = not (hessian or armijo)
    tail = _TAIL_LANES if armijo else 0
    # chosen once per call; an infinite radius stops no lane at an infinite
    # point, whose g, g' and g'' the compiled passes may give otherwise than
    # _horner, so there every pass is _horner
    g_pass, dg_pass = (_evaluator(p, obj.divergence_radius) for p in (obj.g, obj.dg))
    ddg_pass = _evaluator(obj.ddg, obj.divergence_radius) if hessian else None
    grad_tol, radius = np.array(cfg.grad_tol), np.array(obj.divergence_radius)
    # no lane with max(|x|, |y|) at or below half the radius has |z| above it
    half_radius = np.array(0.5 * obj.divergence_radius)
    n = len(x0)
    out_x, out_y = x0.copy(), y0.copy()
    out_k, out_code = np.zeros(n, dtype=int), np.zeros(n, dtype=np.int8)
    lane = np.arange(n)
    x, y = x0.copy(), y0.copy()
    k = 0

    def retire(sel, code):
        m = lane[sel]
        out_x[m], out_y[m] = x[sel], y[sel]
        out_k[m] = k
        out_code[m] = code

    with np.errstate(all="ignore"):
        gr, gi = g_pass(x, y)
        while lane.size:
            if lane.size <= tail:
                real_lane = _real_lane(obj, hessian, cfg) if obj.g.is_real else None
                for m, xm, ym in zip(lane.tolist(), x.tolist(), y.tolist()):
                    out_x[m], out_y[m], out_k[m], out_code[m] = _finish_lane(obj, hessian, cfg, xm, ym, k, real_lane)
                break
            dr, di = dg_pass(x, y)
            gx, gy = _times_conj(dr, di, gr, gi)
            np.negative(gy, out=gy)
            gn = np.hypot(gx, gy)
            stop = gn <= grad_tol
            if newton:
                # the pole test reads |z| on every lane
                zn = np.hypot(x, y)
                stop |= zn > radius
            else:
                # the exact |z| only on the lanes past max(|x|, |y|) >
                # radius/2, the only ones it can stop (see the module
                # docstring); fmax skips a NaN part
                far = np.abs(x)
                np.fmax(far, np.abs(y), out=far)
                far = (far > half_radius).nonzero()[0]
                if far.size:
                    stop[far] |= np.hypot(x[far], y[far]) > radius
            if k >= cfg.max_iter:
                retire(stop, STOPPED)
                retire(~stop, CAPPED)
                break
            if newton:
                # at a NaN point (|z| NaN) g and g' are NaN, no test passes on
                # NaN and the step leads to (NaN, NaN), where run keeps the
                # lane up to the cap
                lost = np.isnan(zn)
                stop |= lost
            # compact only in the sweeps where some lane stops
            gone = stop.nonzero()[0]
            if gone.size:
                retire(gone, STOPPED)
                if newton and lost.any():
                    m = lane[lost]
                    out_x[m] = out_y[m] = math.nan
                    out_k[m], out_code[m] = cfg.max_iter, CAPPED
                keep = (~stop).nonzero()[0]
                if not keep.size:
                    break
                x, y, lane, gr, gi, dr, di, gx, gy, gn = (
                    v[keep] for v in (x, y, lane, gr, gi, dr, di, gx, gy, gn)
                )
                if newton:
                    zn = zn[keep]
            if hessian:
                er, ei = ddg_pass(x, y)
                ur, ui = _times_conj(er, ei, gr, gi)
                s = dr * dr
                s += di * di
                a = ur + s
                b = np.negative(ui, out=ui)
                c = np.subtract(s, ur, out=s)
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
                    div = np.where(div > _ONE, div, _ONE)
                    wx, wy = wx / div, wy / div
                # the Armijo search has evaluated g at every new point
                xn, yn, gr, gi, failed = _armijo_step(obj.g, g_pass, x, y, gx, gy, gr, gi, wx, wy, failed, cfg)
            elif hessian:
                if method is Method.NQN:
                    wx, wy, failed = _shift_search(gx, gy, gn, a, b, c, cfg, _admits_nqn)
                else:
                    wx, wy, failed = _newton_direction(gx, gy, a, b, c)
                xn, yn = x - wx, y - wy
            else:
                alpha = relaxation_factors(cfg.rho, key, lane, k) if relaxed else None
                xn, yn, failed = _relaxed_step(x, y, zn, gr, gi, dr, di, alpha, obj.g.degree)
            gone = failed.nonzero()[0]
            if gone.size:
                # a failed lane ends at the point it could not leave
                retire(gone, FAILED)
                keep = (~failed).nonzero()[0]
                if not keep.size:
                    break
                xn, yn, lane, gr, gi = (v[keep] for v in (xn, yn, lane, gr, gi))
            x, y = xn, yn
            if not armijo:
                gr, gi = g_pass(x, y)
            k += 1
    return out_x, out_y, out_k, out_code
