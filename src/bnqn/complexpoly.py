"""Complex polynomials and the classical one-variable root-finding iterations.

Coefficients are stored lowest degree first throughout.  The string form used
by the CLI is a comma-separated list of ``re+imi`` tokens in the same order,
e.g. ``-1,0,1`` for z^2 - 1.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DerivativeVanishes, NoConvergence, PoleHit
from .linalg import hypot

__all__ = [
    "Polynomial",
    "all_roots",
    "bisector_newton_map",
    "format_complex",
    "newton_map_1d",
    "parse_complex",
    "parse_polynomial",
    "pole_scale",
    "polynomial_to_string",
    "relaxed_newton_map",
    "schroder_conjugacy_defect",
]

# |p'(z)| below this scale-aware threshold counts as an exceptional point of
# the Newton map.
_POLE_TOL = 1e-14


class Polynomial:
    """Immutable complex-coefficient polynomial, lowest-degree coefficient first.

    Trailing zero coefficients are trimmed so the leading coefficient is
    nonzero for everything except the zero polynomial.  Coefficients must be
    finite, and so must their moduli, which ``abs`` takes below.
    """

    __slots__ = ("coeffs", "_derivative")

    def __init__(self, coeffs):
        cs = [complex(c) for c in coeffs]
        if not cs:
            raise ValueError("need at least one coefficient")
        for c in cs:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient {c!r}")
            # abs() raises OverflowError where the modulus overflows
            if hypot(c.real, c.imag) == math.inf:
                raise ValueError(f"the modulus of the coefficient {format_complex(c)} overflows")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._derivative = None

    @classmethod
    def from_roots(cls, roots, lead=1.0):
        """Expand lead * prod (z - r) over the given roots."""
        cs = [complex(lead)]
        for r in roots:
            r = complex(r)
            cs = [0j] + cs
            for k in range(len(cs) - 1):
                cs[k] = cs[k] - r * cs[k + 1]
        return cls(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    @property
    def is_real(self):
        """Every coefficient's imaginary part is 0.0 or -0.0."""
        return not any(c.imag for c in self.coeffs)

    def __call__(self, z):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "Polynomial":
        """Formal derivative (memoized; the object stays immutable)."""
        if self._derivative is None:
            # the only ValueError here is a coefficient k*c that overflows
            try:
                self._derivative = Polynomial([k * c for k, c in enumerate(self.coeffs)][1:] or [0j])
            except ValueError:
                raise ValueError(f"a coefficient of the derivative of {polynomial_to_string(self)} overflows") from None
        return self._derivative

    def cauchy_root_bound(self):
        """1 + max |c_k / c_n|; every root lies in this disk (0 for constants)."""
        if self.degree == 0:
            return 0.0
        lead = abs(self.coeffs[-1])
        return 1.0 + max(abs(c) for c in self.coeffs[:-1]) / lead

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def pole_scale(abs_z, degree: int):
    """|p'(z)| below which a Newton step at z counts as hitting a pole.

    ``_POLE_TOL * (1 + |z|)**(degree - 1)``, the power taken by repeated
    squaring.  Products of floats round alike on a Python float and on a
    numpy array, so the lockstep kernel, which passes one |z| per lane, gets
    the scalar step's scale bit for bit.  Where the power overflows the
    products give inf, and every finite derivative counts as vanishing.
    """
    return _POLE_TOL * _power(1.0 + abs_z, degree - 1)


def _power(base, n: int):
    """base**n by repeated squaring, inf where it overflows (no OverflowError)."""
    power = 1.0
    while n > 0:
        if n & 1:
            power = power * base
        base, n = base * base, n >> 1
    return power


def _check_derivative(p, z, dpz):
    size = hypot(dpz.real, dpz.imag)
    if size < pole_scale(hypot(z.real, z.imag), p.degree):
        raise DerivativeVanishes(f"|p'({z})| = {size:.3e} below pole tolerance")


def newton_map_1d(p: Polynomial, z) -> complex:
    """One Newton step z - p(z)/p'(z) for a complex polynomial."""
    z = complex(z)
    dpz = p.derivative()(z)
    _check_derivative(p, z, dpz)
    return z - p(z) / dpz


def relaxed_newton_map(p: Polynomial, z, alpha) -> complex:
    """Relaxed Newton step z - alpha * p(z)/p'(z); alpha=1 is the plain map."""
    z = complex(z)
    dpz = p.derivative()(z)
    _check_derivative(p, z, dpz)
    return z - complex(alpha) * (p(z) / dpz)


def bisector_newton_map(y: float) -> float:
    """Newton map of z^2 - 1 restricted to the imaginary axis, in z = iy.

    Conjugate to angle doubling via y = cot(pi t), which makes the dynamics
    on the axis chaotic.
    """
    if y == 0.0:
        raise PoleHit("bisector map has a pole at y = 0")
    return (y * y - 1.0) / (2.0 * y)


_ZSQ_MINUS_ONE = Polynomial([-1.0, 0.0, 1.0])


def schroder_conjugacy_defect(z) -> float:
    """|phi(N(z)) - phi(z)^2| for N the Newton map of z^2 - 1, phi(z)=(z-1)/(z+1).

    The Moebius map phi conjugates N to w -> w^2, so the defect is zero up to
    roundoff away from the poles z in {-1, 0}.
    """
    z = complex(z)
    if z == -1 or z == 0:
        raise PoleHit(f"{z} is excluded (pole of the conjugacy or of the map)")
    try:
        nz = newton_map_1d(_ZSQ_MINUS_ONE, z)
    except DerivativeVanishes as exc:
        raise PoleHit(str(exc)) from exc
    if nz == -1:
        raise PoleHit("Newton image hits the pole of the conjugacy")
    phi_nz = (nz - 1.0) / (nz + 1.0)
    phi_z = (z - 1.0) / (z + 1.0)
    return abs(phi_nz - phi_z * phi_z)


def _newton_descent(p: Polynomial, z: complex, max_iter: int) -> tuple[complex, float]:
    """Newton's method z - p(z)/p'(z) from z for as long as |p| strictly
    falls, at most max_iter steps; returns the iterate with the smallest |p|
    and that |p|, which is inf where |p| at z is not finite."""
    dp, best, z_best = p.derivative(), math.inf, z
    for _ in range(max_iter + 1):
        pz, dpz = p(z), dp(z)
        size = hypot(pz.real, pz.imag)
        if not size < best:
            break
        best, z_best = size, z
        if dpz == 0:
            break
        z = z - pz / dpz
    return z_best, best


def _polish(p: Polynomial, z: complex, max_iter: int) -> complex:
    """``_newton_descent`` from z moved to the grid of 2**-26 times the power
    of two of its larger part (2**26 of that part's ulps), so that estimates
    which differ only in their last bits start from the same point; zero
    stays zero.  Where |p| is not finite at the grid point, as where p
    overflows, it cannot steer the descent, and the polish starts from z
    itself."""
    if cmath.isfinite(z):
        step = math.ulp(max(abs(z.real), abs(z.imag))) * 2**26
        root, size = _newton_descent(p, complex(round(z.real / step) * step, round(z.imag / step) * step), max_iter)
        if size < math.inf:
            return root
    return _newton_descent(p, z, max_iter)[0]


def all_roots(p: Polynomial, tol: float, max_iter: int = 500) -> list[complex]:
    """All complex roots of p, with multiplicity, sorted counter-clockwise.

    The estimates are the eigenvalues of p's balanced companion matrix
    (``numpy.roots``; Edelman and Murakami, Math. Comp. 64, 1995).  Each is
    moved to a grid of 2**-26 relative to its size and polished by Newton's
    method in pure Python for as long as |p| strictly falls, at most max_iter
    steps, so that LAPACK builds that differ in the last bits of an estimate
    give the same root; where p overflows at the grid point, the polish
    starts from the estimate itself, and the root may keep last bits that
    differ across LAPACK builds.  Every root r must be finite with
    |p(r)| <= tol * (1+|r|)^deg * max|coeff|.  The roots are sorted by their
    argument in [0, 2pi), counter-clockwise from the positive real axis, and
    by modulus on one ray; root k of z^n - 1 is exp(2 pi i k/n).

    A multiple root away from 0 comes back as nearby estimates whose last
    bits may differ across LAPACK builds: their spread is about the square
    root of the unit roundoff, more than the grid absorbs.

    Raises NoConvergence where the companion matrix has non-finite entries or
    a root misses the residual bound.
    """
    if p.degree < 1:
        raise ValueError("all_roots needs degree >= 1")
    # numpy warns where dividing by the leading coefficient overflows
    with np.errstate(all="ignore"):
        try:
            estimates = np.roots(p.coeffs[::-1])
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"numpy.roots failed: {exc}") from None
    roots = [_polish(p, complex(z), max_iter) for z in estimates]
    max_coeff = max(abs(c) for c in p.coeffs)
    for r in roots:
        # a NaN or infinite root never converges, whatever its residual
        if not (cmath.isfinite(r) and abs(p(r)) <= tol * _power(1.0 + abs(r), p.degree) * max_coeff):
            raise NoConvergence(f"the root estimate {format_complex(r)} misses the residual bound")
    return sorted(roots, key=lambda r: (math.atan2(r.imag, r.real) % math.tau, abs(r)))


def parse_complex(token: str) -> complex:
    """Parse one ``re+imi`` token (also plain reals and pure imaginaries)."""
    text = token.strip().replace(" ", "")
    if not text:
        raise ValueError("empty coefficient token")
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise ValueError(f"cannot parse {token!r} as a complex number") from exc


def parse_polynomial(text: str, highest_first: bool = False) -> Polynomial:
    """Parse a comma-separated coefficient list, lowest degree first by default."""
    tokens = [t for t in text.split(",")]
    if not tokens or all(not t.strip() for t in tokens):
        raise ValueError("empty polynomial string")
    coeffs = [parse_complex(t) for t in tokens]
    if highest_first:
        coeffs.reverse()
    return Polynomial(coeffs)


def format_complex(z) -> str:
    """Render a complex number as ``re+imi`` with 17 significant digits."""
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    if z.real == 0.0:
        return f"{z.imag:.17g}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def polynomial_to_string(p: Polynomial) -> str:
    return ",".join(format_complex(c) for c in p.coeffs)
