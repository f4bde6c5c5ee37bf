"""Geometric grid on (0, r_max] with the r dr measure, and the radial
finite-difference operators built on it.

The grid is log-uniform: r_i = r_min * (r_max/r_min)^(i/(n-1)).  Quadrature
against the measure r dr (or r^p dr) is trapezoid rule in the log variable,
which is second order in the log spacing.  Every stencil is written in
x = ln r, where the nodes are uniform.  The grid's one operator, the
singular operator of degree m, is a centered 3-point formula in x, and so
is the first derivative, with one-sided 3-point rows at the ends.  Both end
rows of the operator come from the exact energies of the tails beyond the
grid (the r^m law inside r_min, the r^-m law outside r_max), which makes it
the gradient of the discrete energy the package reports up to
``energy.tail_gradient_gap``.

Shifted systems are solved by LAPACK.  Every one is on the degree-m
operator, which is symmetric in the r dr weights, so every one is scaled by
them and solved by LDL^T (no pivoting): ``dpttrf`` factors it and
``dpttrs`` solves on the factors, which are kept for the latest shifted
operator where the diagonal carries no potential.  One library serves
both routines.  It is the OpenBLAS that numpy (>= 2) wheels bundle, found
as the symbols ``scipy_dpttrf_64_`` and ``scipy_dpttrs_64_`` through
``numpy.linalg._umath_linalg``'s shared library, so ``import hmflow`` loads
numpy and no scipy module.  Where that module or either symbol is missing
(numpy 1.x wheels, numpy built on a system LAPACK) both come from
``scipy.linalg.lapack``, which is then imported once, when this module is.
Both libraries, and both routes, give the same bits.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation


def _address(array):
    """Address of the first element of a writable contiguous array."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def _openblas_lapack():
    """``(pttrf, pttrs)`` on the OpenBLAS that numpy bundles (64-bit
    integers), or None unless it exports both routines."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        ptrf, ptrs = (getattr(lib, f"scipy_d{name}_64_")
                      for name in ("pttrf", "pttrs"))
    except (ImportError, OSError, AttributeError):
        return None
    ptrf.argtypes = [ctypes.c_void_p] * 4
    ptrs.argtypes = [ctypes.c_void_p] * 7
    ptrf.restype = ptrs.restype = None
    sizes = {}  # n -> (n, nrhs, ldb); the routines only read them

    def size_of(n):
        try:
            return ctypes.addressof(sizes[n])
        except KeyError:
            return ctypes.addressof(
                sizes.setdefault(n, (ctypes.c_int64 * 3)(n, 1, n)))

    def pttrf(d, e):
        info = ctypes.c_int64()
        ptrf(size_of(d.shape[0]), _address(d), _address(e),
             ctypes.addressof(info))
        return info.value

    def pttrs(d, e, b):
        s = size_of(b.shape[0])
        info = ctypes.c_int64()
        ptrs(s, s + 8, _address(d), _address(e), _address(b), s + 16,
             ctypes.addressof(info))
        return b

    return pttrf, pttrs


def _scipy_lapack():
    """``(pttrf, pttrs)`` on ``scipy.linalg.lapack``."""
    from scipy.linalg.lapack import dpttrf, dpttrs

    def pttrf(d, e):
        # factors in d and e themselves, which solve_shifted makes as new
        # contiguous float64 arrays; f2py would factor a copy of any other
        return dpttrf(d, e, overwrite_d=1, overwrite_e=1)[2]

    def pttrs(d, e, b):
        return dpttrs(d, e, b, overwrite_b=1)[0]

    return pttrf, pttrs


# _pttrf(d, e) factors the symmetric tridiagonal matrix with diagonal d and
# off-diagonal e as LDL^T by dpttrf, in place, and returns info; info > 0
# means the matrix is not positive definite.  _pttrs(d, e, b) solves for
# the right side b by dpttrs on those factors, in b, and returns the
# solution; it never writes the factors.
_pttrf, _pttrs = _openblas_lapack() or _scipy_lapack()


def _factor(d, e):
    """(d, e) after ``_pttrf`` has factored them in place; raises
    ``numpy.linalg.LinAlgError`` if the matrix is not positive definite."""
    if _pttrf(d, e) > 0:
        raise np.linalg.LinAlgError(
            "shifted operator is not positive definite")
    return d, e


class RadialGrid:
    """Immutable geometric node set with r dr quadrature weights.

    ``nodes``, ``weights`` and the private per-node arrays are read-only.
    The one cached entry, ``_shifted``, holds the latest shifted system of
    ``solve_shifted`` and is never handed out, so the instance is safe to
    share across threads after construction.
    """

    def __init__(self, r_min: float, r_max: float, n: int):
        if not r_min > 0:
            raise ConfigurationError(f"r_min must be positive, got {r_min}")
        if not r_min < r_max < np.inf:
            raise ConfigurationError(
                f"need r_min < r_max < inf, got r_min={r_min}, r_max={r_max}")
        if n < 16:
            raise ConfigurationError(f"need at least 16 nodes, got {n}")
        if n > np.iinfo(np.intp).max // np.dtype(float).itemsize:
            raise ConfigurationError(
                f"n = {n} is too large: an array of n floats cannot be sized")
        self.r_min = float(r_min)
        self.r_max = float(r_max)
        # the package divides by r^2 (the operator bands) and by r^4 (the
        # L4 monitor); r_min^4 must be a normal float, and r_max^4 finite
        if not (r_min * r_min) * (r_min * r_min) >= np.finfo(float).tiny:
            raise ConfigurationError(
                f"r_min = {r_min:g} is too small: r_min^4 is below the "
                f"smallest normal float")
        r4 = (self.r_max * self.r_max) * (self.r_max * self.r_max)
        if not r4 < np.inf:
            raise ConfigurationError(
                f"r_max = {r_max:g} is too large: r_max^4 overflows")
        self.n = int(n)
        x = np.linspace(np.log(r_min), np.log(r_max), n)
        self.log_step = x[1] - x[0]
        self.nodes = np.exp(x)
        self.nodes[0] = r_min
        self.nodes[-1] = r_max
        # trapezoid weights in the log variable
        tw = np.full(n, self.log_step)
        tw[0] = tw[-1] = 0.5 * self.log_step
        self._trapz_log = tw
        # weights for  integral f(r) r dr  =  integral f e^{2x} dx
        self.weights = tw * self.nodes**2
        # 1/(2h r_i), the scale of every first-derivative row
        self._inv_2hr = 0.5 / (self.log_step * self.nodes)
        for array in (self.nodes, self.weights, tw, self._inv_2hr):
            array.flags.writeable = False
        # (key, d_free, e, ghost_coeff, factors or None) of solve_shifted
        self._shifted = None

    def integrate(self, samples: np.ndarray, power: int = 1) -> float:
        """Quadrature of  integral f(r) r^power dr  from nodal samples."""
        if power == 1:
            return float(np.dot(self.weights, samples))
        return float(np.dot(self._trapz_log * self.nodes ** (power + 1), samples))

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """L^2(r dr) inner product of two sample vectors."""
        return float(np.dot(self.weights, a * b))

    def lp_norm(self, samples: np.ndarray, p: float) -> float:
        """L^p(r dr) norm (p = inf gives the sup norm)."""
        if np.isinf(p):
            return float(np.max(np.abs(samples)))
        return self.integrate(np.abs(samples) ** p) ** (1.0 / p)

    # ---- stencils in x = ln r ------------------------------------------

    def operator_bands(self, inv_square: float):
        """Bands (sub, diag, sup) of the singular operator of degree m,
        d^2/dr^2 + (1/r) d/dr - inv_square/r^2 with inv_square = m^2 > 0.

        In x = ln r the operator is r^-2 (d_x^2 - inv_square), and interior
        row i is its centered 3-point form r_i^-2 [(v_{i+1} - 2 v_i +
        v_{i-1})/h^2 - inv_square v_i].  Its end rows are the gradients of
        the tail energies (m/2) v_0^2 (r^m law inside r_0) and (m/2)
        (v_{n-1} - ghost)^2 (r^-m law outside r_{n-1}, ghost the offset at
        infinity): row 0 is r_0^-2 [2 (v_1 - v_0)/h^2 - (2m/h + m^2) v_0],
        row n-1 is r^-2 [2 (v_{n-2} - v_{n-1})/h^2 - (2m/h + m^2) v_{n-1}
        + (2m/h) ghost].  So w_i (Op v + F(v))_i = -dE_h/dv_i, with w the
        r dr weights, for E_h of ``energy.node_energies`` up to
        ``energy.tail_gradient_gap`` at node 0; ``energy.neg_gradient`` is
        the edge form of E_h's own gradient.  Op is symmetric in w.  Row
        n-1's sup entry multiplies the outer ghost value; row 0's sub entry
        is unused.  Each call returns new arrays.
        """
        if not inv_square > 0:  # the tail rows need m >= 1
            raise ContractViolation("the stencil is the degree-m operator "
                                    f"(inv_square > 0), got {inv_square}")
        h = self.log_step
        inv_r2 = 1.0 / self.nodes**2
        sub = (1.0 / h**2) * inv_r2
        diag = (-2.0 / h**2 - inv_square) * inv_r2
        sup = sub.copy()
        tail = 2.0 * np.sqrt(inv_square) / h
        sup[0] *= 2.0
        sub[-1] *= 2.0
        diag[0] -= tail * inv_r2[0]
        diag[-1] -= tail * inv_r2[-1]
        sup[-1] = tail * inv_r2[-1]
        return sub, diag, sup

    def solve_shifted(self, rhs, alpha, inv_square, ghost_outer=0.0,
                      potential=None):
        """Solve (W/alpha - W Op - diag(potential)) u = rhs, with the ghost
        term w_{n-1} sup_{n-1} ghost_outer added to the last row of rhs: Op
        is the degree-m operator of ``operator_bands`` (inv_square = m^2),
        ghost_outer its outer ghost value, W the diagonal of the r dr
        weights w, and potential=None means no potential.

        IMEX1 passes its Newton system as it stands (rhs = -grad E_h,
        potential = W F'); IMEX2 and ``solve_helmholtz`` pass W-scaled
        right sides and no potential.  The matrix is symmetric, since Op
        is symmetric in W, and it is solved by LDL^T (no pivoting):
        ``dpttrf`` on d_free - potential and the off-diagonal -w_i sup_i,
        then ``dpttrs`` on a copy of rhs, with d_free = w/alpha - w diag.
        Without a potential the matrix is, for alpha > 0, strictly
        diagonally dominant with a positive diagonal, hence positive
        definite.  With one it is positive definite at every alpha > 0
        where the potential stays at or below w inv_square/r^2, and for
        any bounded potential at small enough alpha.

        One cache entry, ``_shifted``, is kept for the latest (alpha,
        inv_square), built from ``operator_bands`` when the key changes: a
        run's step size moves only on rejections and regrowth.  It holds
        the key, d_free, -w_i sup_i, the ghost coefficient w_{n-1} sup_{n-1}
        and, once a call without a potential has asked for them, the LDL^T
        factors of that matrix (writable, as the ctypes route needs).  No
        argument is written, nor anything in the entry once it is built,
        so the instance stays safe to share across threads.  The module
        docstring names the LAPACK library.  Raises
        ``numpy.linalg.LinAlgError`` when the matrix is not positive
        definite.
        """
        n = self.n
        if np.shape(rhs) != (n,) or (potential is not None
                                     and np.shape(potential) != (n,)):
            # LAPACK is handed addresses into arrays sized from the grid
            raise ContractViolation(
                "rhs and potential need one value per node")
        key = (alpha, inv_square)
        entry = self._shifted
        if entry is None or entry[0] != key:
            _, diag, sup = self.operator_bands(inv_square)
            w = self.weights
            entry = (key, w / alpha - w * diag, -(w[:-1] * sup[:-1]),
                     w[-1].item() * sup[-1].item(), None)
            self._shifted = entry
        _, d_free, e, ghost_coeff, factors = entry
        if potential is not None:
            factors = _factor(np.subtract(d_free, potential), e.copy())
        elif factors is None:
            factors = _factor(d_free.copy(), e.copy())
            self._shifted = entry[:4] + (factors,)
        b = np.array(rhs, dtype=float)
        if ghost_outer != 0.0:
            b[-1] += ghost_coeff * ghost_outer
        return _pttrs(*factors, b)

    def derivative(self, values: np.ndarray) -> np.ndarray:
        """First derivative of nodal samples in x = ln r, v_r = v_x / r:
        centered rows (v_{i+1} - v_{i-1}) / (2h r_i), and the one-sided
        second-order rows (-3 v_0 + 4 v_1 - v_2) / (2h r_0) and
        (3 v_{n-1} - 4 v_{n-2} + v_{n-3}) / (2h r_{n-1})."""
        out = np.empty(self.n)
        np.subtract(values[2:], values[:-2], out=out[1:-1])
        a, b, c = values[:3].tolist()
        out[0] = 4.0 * b - 3.0 * a - c
        a, b, c = values[-3:].tolist()
        out[-1] = 3.0 * c - 4.0 * b + a
        out *= self._inv_2hr
        return out

    def derivative_adjoint(self, values: np.ndarray) -> np.ndarray:
        """The transpose of ``derivative`` applied to nodal samples."""
        z = self._inv_2hr * values
        out = np.zeros(self.n)
        out[2:] += z[1:-1]
        out[:-2] -= z[1:-1]
        a, c = float(z[0]), float(z[-1])
        out[:3] += (-3.0 * a, 4.0 * a, -a)
        out[-3:] += (c, -4.0 * c, 3.0 * c)
        return out

    def __repr__(self):
        return (f"RadialGrid(r_min={self.r_min:g}, r_max={self.r_max:g}, "
                f"n={self.n})")


@dataclass
class RadialField:
    """Sampled angle u(r_i), stored as the offset u - inner_limit.

    inner_limit is the value of u at the origin: 0 for zero-degree maps, pi
    for degree-m maps; in both sectors u tends to 0 at infinity.  The
    offset vanishes like r^m at the origin, so storing it (and not u) keeps
    it exact where it is far below ulp(pi); linear operators act on it, and
    the inner tail closure carries that power law (see
    ``RadialGrid.operator_bands``).
    """

    grid: RadialGrid
    offset: np.ndarray
    inner_limit: float = 0.0

    def __post_init__(self):
        self.offset = np.asarray(self.offset, dtype=float)
        if self.offset.shape != (self.grid.n,):
            raise ContractViolation(
                f"offset shape {self.offset.shape} does not match grid n={self.grid.n}")
        if not np.isfinite(self.offset).all():
            raise ContractViolation("field values must be finite")
        if self.inner_limit not in (0.0, np.pi):
            raise ContractViolation(
                f"inner_limit must be 0 or pi, got {self.inner_limit}")

    @property
    def values(self) -> np.ndarray:
        """The angle u = offset + inner_limit (a new array on each access)."""
        return self.offset + self.inner_limit

    def outer_ghost_offset(self) -> float:
        """The offset of u = 0 at infinity, the outer ghost value of the
        operators; 0 - inner_limit is +0.0, not -0.0, for zero-degree data."""
        return 0.0 - self.inner_limit


def build_grid(r_min: float, r_max: float, n: int) -> RadialGrid:
    """Geometric grid on [r_min, r_max] with r dr quadrature weights."""
    return RadialGrid(r_min, r_max, n)


def check_degree(m, r_min=None) -> None:
    """Reject a degree m that is not a positive integer: the tail closures
    of the degree-m operator and of the energy it descends need m >= 1.
    Given the grid's r_min, also reject an m whose m^2 or (m/r_min)^2, the
    largest inverse-square term of the operator, is not a finite float."""
    try:
        ok = m >= 1 and float(m).is_integer()
    except OverflowError:
        ok = False
    if not ok:
        raise ContractViolation(f"degree m must be a positive integer, got {m}")
    if r_min is not None:
        q = max(float(m), float(m) / r_min)
        if not q * q < np.inf:
            raise ContractViolation(
                f"degree m = {float(m):g} is too large for r_min = "
                f"{r_min:g}: m^2 or (m/r_min)^2 overflows")


def differentiate(field: RadialField) -> RadialField:
    """d/dr of the samples: centered interior, one-sided at the ends."""
    return RadialField(field.grid, field.grid.derivative(field.offset))


def apply_delta_m(field: RadialField, m: int) -> RadialField:
    """The singular operator (d^2/dr^2 + (1/r) d/dr - m^2/r^2) u.

    The stencil acts on the offset u - inner_limit, closed by the r^m tail
    inside and by the r^-m tail decaying to -inner_limit (u = 0) outside;
    the exact -m^2 * inner_limit / r^2 contribution of the constant is
    restored afterwards, so the returned samples are the true operator
    values.
    """
    g = field.grid
    check_degree(m, g.r_min)
    sub, diag, sup = g.operator_bands(float(m * m))
    # row i is (sub_i v_{i-1} + diag_i v_i) + sup_i v_{i+1}, summed in that
    # order, with v_{-1} = 0 and v_n the outer ghost value
    v = field.offset
    out = np.multiply(diag, v)
    band = np.multiply(sub[1:], v[:-1])
    out[1:] += band
    # the v_{-1} = 0 term can turn a -0.0 row into +0.0
    out[0] += sub[0] * 0.0
    np.multiply(sup[:-1], v[1:], out=band)
    out[:-1] += band
    out[-1] += sup[-1] * field.outer_ghost_offset()
    if field.inner_limit != 0.0:
        out = out - m * m * field.inner_limit / g.nodes**2
    return RadialField(g, out)


def solve_helmholtz(rhs: RadialField, m: int, alpha: float) -> RadialField:
    """Solve (I - alpha * Delta_m) u = rhs with the tail closures of
    ``RadialGrid.operator_bands``, u tending to 0 at infinity, as the
    W-scaled system (W/alpha - W Delta_m) u = W rhs / alpha of
    ``RadialGrid.solve_shifted``, W the r dr weights."""
    if alpha <= 0:
        raise ContractViolation(f"alpha must be positive, got {alpha}")
    g = rhs.grid
    check_degree(m, g.r_min)
    u = g.solve_shifted(g.weights * rhs.values / alpha, alpha, float(m * m))
    return RadialField(g, u)


def origin_exponent(field: RadialField) -> float:
    """Leading exponent p of u - inner_limit ~ r^p near r_min, by log-log fit
    over the first decade of nodes with non-negligible offset."""
    off = np.abs(field.offset)
    scale = np.max(off)
    if scale == 0.0:
        return np.nan
    k = max(int(1.0 / field.grid.log_step), 8)  # about one decade
    r = field.grid.nodes[:k]
    o = off[:k]
    ok = o > 1e-13 * scale
    if np.count_nonzero(ok) < 4:
        return np.nan
    p = np.polyfit(np.log(r[ok]), np.log(o[ok]), 1)
    return float(p[0])
