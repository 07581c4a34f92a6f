"""Jacobi elliptic functions and the elliptic integrals used by the field
model and arc-length formulas.

Conventions
-----------
`k` always denotes the elliptic *modulus* (0 <= k <= 1).  The arc-length
integral takes the *parameter* `m`, which may be negative; the two are
related by m = k**2 only on the non-negative branch.  Everything here is
evaluated with descending-Landen/AGM recursions or fixed-order
Gauss-Legendre panels, accurate to ~1e-15 relative, so downstream 1e-8
ODE tolerances are never limited by the special functions.
"""

import math

import numpy as np

__all__ = [
    "sncndn_of",
    "jacobi_sncndn",
    "complete_k",
    "incomplete_e",
]

# AGM scale convergence: quadratic, so the loop terminates in ~8 iterations
# for any k in (0, 1); the bound only guards pathological float input.
_AGM_EPS = 1.0e-10
_AGM_MAX_ITER = 32
# below this |u|, u^2/2 < 5e-17 and (u, 1, 1) is sn, cn, dn to rounding
_SMALL_U = 1.0e-8

# 16-point Gauss-Legendre rule on [-1, 1]; panels of width <= pi/8 push the
# quadrature error for the smooth arc-length integrand below 1e-15.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANEL_WIDTH = math.pi / 8.0


def _check_argument(u):
    if not math.isfinite(u):
        raise ValueError(f"argument must be finite, got {u!r}")


def _finite_array(u):
    u = np.asarray(u, dtype=float)
    bad = ~np.isfinite(u)
    if bad.any():
        raise ValueError(f"argument must be finite, got {u[bad][0]!r}")
    return u


def _check_modulus(k):
    if not (isinstance(k, (int, float)) and math.isfinite(k)):
        raise ValueError(f"elliptic modulus must be a finite real, got {k!r}")
    if k < 0.0 or k > 1.0:
        raise ValueError(f"elliptic modulus must lie in [0, 1], got {k}")


def sncndn_of(k):
    """Return the evaluator u -> (sn(u|k), cn(u|k), dn(u|k)) for one modulus.

    The modulus is checked here, once.  The limits k=0 (trigonometric) and
    k=1 (hyperbolic) are closed forms; for 0 < k < 1 the descending-Landen
    AGM ladder is built here, so each call does only the back substitution
    (a backward recurrence for dn).  Every call rejects a non-finite u.

    A scalar u (ndim 0) is evaluated with `math`, which is what the
    right-hand sides call once per stage; an array u is evaluated
    elementwise with numpy by the same arithmetic and gives three arrays of
    its shape.
    """
    _check_modulus(k)

    if k == 0.0:
        def sncndn(u):
            if not isinstance(u, float) and np.ndim(u):
                u = _finite_array(u)
                return np.sin(u), np.cos(u), np.ones_like(u)
            _check_argument(u)
            return math.sin(u), math.cos(u), 1.0
        return sncndn
    if k == 1.0:
        def sncndn(u):
            if not isinstance(u, float) and np.ndim(u):
                u = _finite_array(u)
                with np.errstate(over="ignore"):   # sech underflows to 0 past |u| = 710
                    sech = 1.0 / np.cosh(u)
                return np.tanh(u), sech, sech.copy()   # cn and dn: two arrays
            _check_argument(u)
            sech = 1.0 / math.cosh(u)
            return math.tanh(u), sech, sech
        return sncndn

    # descending AGM ladder: the back substitution walks its (a, sqrt(mc))
    # rungs last first, after scaling u by the converged mean
    mc = (1.0 - k) * (1.0 + k)  # complementary parameter 1 - k^2
    a = 1.0
    rungs = []
    for _ in range(_AGM_MAX_ITER):
        mc = math.sqrt(mc)
        rungs.append((a, mc))
        scale = 0.5 * (a + mc)
        if abs(a - mc) <= _AGM_EPS * a:
            break
        mc = a * mc
        a = scale
    rungs.reverse()

    def sncndn_array(u):
        u = _finite_array(u)
        v = scale * u
        sn, cn = np.sin(v), np.cos(v)
        dn = np.ones_like(v)
        # elements with sn = 0 keep (sin, cos, 1) and small ones (u, 1, 1), as
        # in the scalar branch; the recurrence runs on every element
        live = (sn != 0.0) & (np.abs(u) >= _SMALL_U)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = cn / sn
            c = scale * a
            for b, e in rungs:
                a *= c
                c *= dn
                dn = (e + a) / (b + a)
                a = c / b
            a = np.copysign(1.0 / np.sqrt(c * c + 1.0), sn)
            c *= a
        small = np.abs(u) < _SMALL_U
        return (np.where(live, a, np.where(small, u, sn)),
                np.where(live, c, np.where(small, 1.0, cn)),
                np.where(live, dn, 1.0))

    def sncndn(u):
        if not isinstance(u, float) and np.ndim(u):
            return sncndn_array(u)
        _check_argument(u)
        if abs(u) < _SMALL_U:
            # the back substitution divides by sn and overflows for |u| below
            # about 1e-154; here the Taylor terms past (u, 1, 1) are under half an ulp
            return u, 1.0, 1.0
        u = scale * u
        sn, cn = math.sin(u), math.cos(u)
        dn = 1.0
        if sn != 0.0:
            a = cn / sn
            c = scale * a
            for b, e in rungs:
                a *= c
                c *= dn
                dn = (e + a) / (b + a)
                a = c / b
            a = 1.0 / math.sqrt(c * c + 1.0)
            sn = a if sn >= 0.0 else -a
            cn = c * sn
        return sn, cn, dn

    return sncndn


def jacobi_sncndn(u, k):
    """Return the triple (sn(u|k), cn(u|k), dn(u|k)).

    One call of :func:`sncndn_of`; build the evaluator once instead when
    evaluating many arguments at one modulus.
    """
    return sncndn_of(k)(u)


def complete_k(k):
    """Complete elliptic integral of the first kind K(k), by AGM.

    4*K(k)/omega is the real period of sn and cn in the drive field;
    dn repeats already after 2*K(k)/omega.
    """
    _check_modulus(k)
    if k == 1.0:
        raise ValueError("K(k) diverges at k = 1")
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    # bounded: for some k (0.6, 0.97) the means settle one ulp apart, which
    # is more than 1e-16 a, and never meet
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= 1e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def incomplete_e(phi, m):
    """Incomplete integral  int_0^phi sqrt(1 - m sin^2 x) dx.

    This is the second-kind form (integrand power +1/2).  `m` is the
    parameter and may be negative, which is how the resonance arc length
    uses it (m = -omega^2/h^2).  Evaluated by composite 16-point
    Gauss-Legendre panels; the integrand is analytic whenever
    m sin^2 x < 1 on the range, so convergence is spectral.
    """
    if not (math.isfinite(phi) and math.isfinite(m)):
        raise ValueError("phi and m must be finite reals")
    if phi == 0.0:
        return 0.0
    if m > 1.0:
        # integrand turns imaginary once |sin x| reaches 1/sqrt(m)
        x_crit = math.asin(1.0 / math.sqrt(m))
        if abs(phi) > x_crit + 1e-15:
            raise ValueError(
                f"integrand imaginary on range: m*sin^2 reaches {m * 1.0:.3g} > 1"
            )

    sign = 1.0 if phi > 0 else -1.0
    span = abs(phi)
    n_panels = max(1, int(math.ceil(span / _PANEL_WIDTH)))
    edges = np.linspace(0.0, span, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    # (n_panels, 16) evaluation points
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    s = np.sin(x)
    radicand = 1.0 - m * s * s
    if np.any(radicand < 0.0):
        raise ValueError("integrand imaginary on range (m sin^2 x > 1 reached)")
    vals = np.sqrt(radicand)
    total = float(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * vals))
    return sign * total
