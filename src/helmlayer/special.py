"""Complex special functions and the branch conventions used everywhere else.

The single most important convention in this module is the square root
branch: for z = r e^{i theta} with theta in [-pi, pi) we define
sqrt(z) = sqrt(r) e^{i theta/2}.  With this choice the vertical wavenumber

    h(lambda) = branch_sqrt(lambda^2 - k^2)

is positive real for real |lambda| > k and equals -i sqrt(k^2 - lambda^2)
inside the propagating band |lambda| < k, which is what makes the spectral
integrands decay upward and radiate outgoing waves.

Bessel J of (possibly complex) argument is computed with an ascending
series for small |z| and a backward Miller-type recurrence normalized by
the even-order sum identity J_0 + 2 J_2 + 2 J_4 + ... = 1 otherwise.
Hankel functions are only ever needed for positive real argument and are
delegated to scipy's AMOS routines.
"""

import cmath
import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError, OverflowRangeError

MAX_ORDER = 256
# switch radius between ascending series and backward recurrence (tunable)
BESSEL_SERIES_RADIUS = 12.0
# validity radius: e^{|Im z|} must stay inside double range
BESSEL_OVERFLOW_RADIUS = 700.0

_TINY_SEED = 1e-30
_RESCALE_LIMIT = 1e250


def branch_sqrt(z):
    """Square root with the cut at theta = -pi, i.e. theta in [-pi, pi).

    Identical to the principal branch except on the negative real axis,
    where it returns -i*sqrt(|z|) (the principal branch returns +i*sqrt(|z|)).
    Total function: never raises.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real < 0.0:
        return complex(0.0, -math.sqrt(-z.real))
    return cmath.sqrt(z)


def branch_sqrt_arr(z):
    """Vectorized :func:`branch_sqrt` for ndarray input."""
    z = np.asarray(z, dtype=complex)
    out = np.sqrt(z)
    neg = (z.imag == 0.0) & (z.real < 0.0)
    if np.any(neg):
        out = np.array(out, copy=True)
        out[neg] = -1j * np.sqrt(-z.real[neg])
    return out


def _check_order(p):
    if abs(int(p)) > MAX_ORDER:
        raise OverflowRangeError(f"order |p|={abs(p)} exceeds maximum {MAX_ORDER}")
    return int(p)


def _series_j_orders(z, pmax):
    """Ascending series for orders 0..pmax, |z| <= BESSEL_SERIES_RADIUS.

    z : complex ndarray of shape (n,)
    returns (pmax+1, n) complex array

    All orders are summed together; an order's row stops growing at the
    first term that is negligible at every point of that row.
    """
    n = z.shape[0]
    zh = 0.5 * z
    zh2 = -(zh * zh)
    # leading coefficient (z/2)^p / p! built multiplicatively to avoid
    # overflow of the numerator before the factorial division
    out = np.empty((pmax + 1, n), dtype=complex)
    out[0] = 1.0
    for p in range(1, pmax + 1):
        out[p] = out[p - 1] * zh / p
    live = np.arange(pmax + 1)
    term = out.copy()
    for m in range(1, 400):
        # a 2-d zh2 keeps numpy on the multiply loop of a plain row
        # product; an (L, 1) * (1,) broadcast rounds differently
        term = term * zh2[None, :] / (m * (m + live))[:, None]
        acc = out[live] + term
        out[live] = acc
        done = np.all(np.abs(term) <= 1e-18 * (np.abs(acc) + 1e-300), axis=1)
        if np.any(done):
            live = live[~done]
            term = term[~done]
            if live.size == 0:
                break
    return out


def _miller_j_orders(z, pmax):
    """Backward recurrence for orders 0..pmax, normalized by the
    generating identity with omega = -+i:

        e^{-iz} = J_0(z) + 2 sum_{p>=1} (-i)^p J_p(z)   (used for Im z >= 0)
        e^{+iz} = J_0(z) + 2 sum_{p>=1} (+i)^p J_p(z)   (used for Im z < 0)

    The side is picked so the normalizing sum has modulus e^{|Im z|},
    the same scale as the largest term, avoiding cancellation.
    """
    n = z.shape[0]
    absmax = float(np.max(np.abs(z)))
    mtop = max(pmax, int(math.ceil(absmax))) + 1
    mtop += int(math.ceil(math.sqrt(40.0 * mtop))) + 12
    if mtop % 2 == 1:
        mtop += 1

    wbase = np.where(z.imag >= 0.0, -1j, 1j)
    target = np.exp(wbase * z)  # e^{-iz} for Im z >= 0, else e^{+iz}
    out = np.zeros((pmax + 1, n), dtype=complex)
    jp1 = np.zeros(n, dtype=complex)
    jcur = np.full(n, _TINY_SEED, dtype=complex)
    wpow = wbase**mtop
    norm = 2.0 * wpow * jcur
    for m in range(mtop, 0, -1):
        jm1 = (2.0 * m / z) * jcur - jp1
        jp1 = jcur
        jcur = jm1
        wpow = wpow / wbase
        mm = m - 1
        if mm <= pmax:
            out[mm] = jcur
        if mm == 0:
            norm += jcur
        else:
            norm += 2.0 * wpow * jcur
        big = np.abs(jcur) > _RESCALE_LIMIT
        if np.any(big):
            scale = np.where(big, 1.0 / _RESCALE_LIMIT, 1.0)
            jcur = jcur * scale
            jp1 = jp1 * scale
            norm = norm * scale
            out[:, big] *= 1.0 / _RESCALE_LIMIT
    return out * (target / norm)


def bessel_j_orders(z, pmax):
    """J_p(z) for all orders p = -pmax..pmax at once.

    Parameters
    ----------
    z : array_like, complex
        Arguments, |z| <= BESSEL_OVERFLOW_RADIUS.
    pmax : int
        Highest order, <= MAX_ORDER.

    Returns
    -------
    (2*pmax+1, n) complex array, row i holding order i - pmax.
    """
    pmax = _check_order(pmax)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim != 1:
        raise DomainError("bessel_j_orders expects a 1-d argument array")
    absz = np.abs(z)
    if np.any(absz > BESSEL_OVERFLOW_RADIUS):
        raise OverflowRangeError(
            f"|z| exceeds validity radius {BESSEL_OVERFLOW_RADIUS}"
        )
    pos = np.zeros((pmax + 1, z.shape[0]), dtype=complex)
    small = absz <= BESSEL_SERIES_RADIUS
    if np.any(small):
        pos[:, small] = _series_j_orders(z[small], pmax)
    if np.any(~small):
        pos[:, ~small] = _miller_j_orders(z[~small], pmax)
    if pmax == 0:
        return pos
    signs = np.array([(-1.0) ** p for p in range(1, pmax + 1)])
    neg = pos[1:, :] * signs[:, None]
    return np.vstack([neg[::-1], pos])


def bessel_j(p, z):
    """Bessel function of the first kind, integer order, complex argument.

    Satisfies |J_p(z)| <= (|z|/2)^|p| e^{|Im z|} / |p|! and the parity
    J_{-p}(z) = (-1)^p J_p(z).  Raises OverflowRangeError outside the
    validity radius instead of returning non-finite values.
    """
    p = _check_order(p)
    ap = abs(p)
    vals = bessel_j_orders(np.array([complex(z)]), ap)
    return complex(vals[ap + p, 0])


def hankel1(p, x):
    """Hankel function of the first kind H_p^{(1)}(x) for real x > 0.

    Orders may be negative (parity H_{-p} = (-1)^p H_p holds).  Raises
    DomainError for x <= 0 and OverflowRangeError if the value does not
    fit in double precision.
    """
    p = _check_order(p)
    x = float(x)
    if not x > 0.0:
        raise DomainError("hankel1 requires a positive real argument")
    val = complex(_sp.hankel1(p, x))
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise OverflowRangeError(f"hankel1({p}, {x}) overflows double precision")
    return val


def hankel1_orders(x, pmax):
    """H_p^{(1)}(x) for p = -pmax..pmax over an array of positive reals.

    Returns (2*pmax+1, n) with row i holding order i - pmax.
    """
    pmax = _check_order(pmax)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0.0):
        raise DomainError("hankel1_orders requires positive real arguments")
    orders = np.arange(0, pmax + 1)
    pos = _sp.hankel1(orders[:, None], x[None, :])
    if not np.all(np.isfinite(pos.view(float))):
        raise OverflowRangeError("hankel1_orders overflow; reduce order or scale")
    if pmax == 0:
        return pos
    signs = np.array([(-1.0) ** p for p in range(1, pmax + 1)])
    neg = pos[1:, :] * signs[:, None]
    return np.vstack([neg[::-1], pos])


def generating_partial_sum(z, omega, P):
    """Partial sum sum_{|p|<P} J_p(z) omega^p of the generating series.

    Converges to exp((z/2)(omega - 1/omega)) as P grows; omega must be
    nonzero.
    """
    omega = complex(omega)
    if omega == 0:
        raise DomainError("generating_partial_sum requires omega != 0")
    P = int(P)
    if P < 1:
        raise DomainError("P must be a positive integer")
    pmax = P - 1
    j = bessel_j_orders(np.array([complex(z)]), pmax)[:, 0]
    p = np.arange(-pmax, pmax + 1)
    with np.errstate(over="raise"):
        try:
            wpow = omega ** p.astype(float)
        except FloatingPointError:
            raise OverflowRangeError("omega^p overflows at this truncation order")
    return complex(np.sum(j * wpow))


def hsq(lam, k, dinfo=None):
    """lambda^2 - k^2 computed without cancellation.

    The factored (lam - k)(lam + k) form is accurate to machine epsilon
    whenever lam is exactly representable; the naive fl(lam^2) - k^2
    loses eps*k/(2|lam - k|) digits.  When the caller knows lam as
    anchor + delta with an exact offset (substitution panels hugging a
    branch point), pass dinfo = (anchor, delta) and the anchor-matching
    k uses delta*(2k + delta), which stays exact even after lam itself
    has rounded onto the anchor.
    """
    if dinfo is not None:
        anchor, delta = dinfo
        if abs(anchor - k) <= 1e-12 * max(k, 1.0):
            return delta * (2.0 * k + delta)
        if abs(anchor + k) <= 1e-12 * max(k, 1.0):
            return delta * (delta - 2.0 * k)
    lam = np.asarray(lam)
    if np.isrealobj(lam):
        lam = lam.astype(float)
    return (lam - k) * (lam + k)


def w_from_h(lam, h, k):
    """w = (lam - h)/k evaluated without cancellation.

    For large |lam| the difference lam - h collapses (h ~ lam), so the
    algebraically identical k/(lam + h) is used whenever the sum is the
    larger of the two; (lam - h)(lam + h) = k^2 makes them equal.
    """
    lam = np.asarray(lam)
    lp = lam + h
    lm = lam - h
    return np.where(np.abs(lp) >= np.abs(lm), k / np.where(lp == 0, 1, lp), lm / k)


def w_map(lam, k):
    """Spectral-to-cylindrical map w(lambda) = (lambda - h(lambda)) / k.

    Scalar front of :func:`w_map_arr`; a real lam keeps the exact branch.
    """
    if not float(k) > 0.0:
        raise DomainError("w_map requires k > 0")
    lam = complex(lam)
    return complex(w_map_arr(lam.real if lam.imag == 0.0 else lam, k))


def w_map_arr(lam, k, dinfo=None):
    """w(lambda) on an array; real input arrays keep the exact branch."""
    k = float(k)
    lam = np.asarray(lam)
    h = branch_sqrt_arr(hsq(lam, k, dinfo))
    return w_from_h(lam, h, k)
