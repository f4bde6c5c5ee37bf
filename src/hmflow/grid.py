"""Geometric grid on (0, r_max] with the r dr measure, and the radial
finite-difference operators built on it.

The grid is log-uniform: r_i = r_min * (r_max/r_min)^(i/(n-1)).  Quadrature
against the measure r dr (or r^p dr) is trapezoid rule in the log variable,
which is second order in the log spacing.  Every stencil is written in
x = ln r, where the nodes are uniform: the operators are centered 3-point
formulas in x, and so is the first derivative, with one-sided 3-point rows
at the ends.  Both end rows of the degree-m operator come from the exact
energies of the tails beyond the grid (the r^m law inside r_min, the r^-m
law outside r_max), which makes it the gradient of the discrete energy the
package reports; operators without an inverse-square term are closed by
zero ghost values.

Shifted systems are solved by LAPACK ``dgtsv``.  The routine is taken from
the OpenBLAS that numpy (>= 2) wheels bundle, found as the symbol
``scipy_dgtsv_64_`` through ``numpy.linalg._umath_linalg``'s shared library,
so ``import hmflow`` loads numpy and no scipy module.  Where that module or
symbol is missing (numpy 1.x wheels, numpy built on a system LAPACK) the
backend is ``scipy.linalg.lapack.dgtsv``, imported once when this module is.
Both give the same bits.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation


def _openblas_gtsv():
    """The ``dgtsv`` backend on numpy's bundled OpenBLAS (64-bit integers),
    or None when numpy carries no such library."""
    try:
        from numpy.linalg import _umath_linalg
        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_dgtsv_64_
    except (ImportError, OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_void_p] * 8
    fn.restype = None
    sizes = {}  # n -> (n, nrhs, ldb); dgtsv only reads them

    def gtsv(buf, n):
        try:
            size = sizes[n]
        except KeyError:
            size = sizes.setdefault(n, (ctypes.c_int64 * 3)(n, 1, n))
        s = ctypes.addressof(size)
        a = ctypes.addressof(ctypes.c_char.from_buffer(buf))
        info = ctypes.c_int64()
        fn(s, s + 8, a, a + 8 * (n - 1), a + 8 * (2 * n - 1),
           a + 8 * (3 * n - 2), s + 16, ctypes.addressof(info))
        return buf[3 * n - 2:], info.value

    return gtsv


def _scipy_gtsv():
    """The ``dgtsv`` backend on ``scipy.linalg.lapack``."""
    from scipy.linalg.lapack import dgtsv

    def gtsv(buf, n):
        *_, u, info = dgtsv(buf[:n - 1], buf[n - 1:2 * n - 1],
                            buf[2 * n - 1:3 * n - 2], buf[3 * n - 2:],
                            overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                            overwrite_b=1)
        return u, info

    return gtsv


# _gtsv(buf, n) solves the system packed in buf as dl | d | du | b and
# returns (solution, info); dgtsv overwrites all of buf
_gtsv = _openblas_gtsv() or _scipy_gtsv()


class RadialGrid:
    """Immutable geometric node set with r dr quadrature weights.

    Stencil coefficients and operator bands are built lazily and cached;
    the instance is safe to share across threads after construction.
    """

    def __init__(self, r_min: float, r_max: float, n: int):
        if not r_min > 0:
            raise ConfigurationError(f"r_min must be positive, got {r_min}")
        if not r_min < r_max < np.inf:
            raise ConfigurationError(
                f"need r_min < r_max < inf, got r_min={r_min}, r_max={r_max}")
        if n < 16:
            raise ConfigurationError(f"need at least 16 nodes, got {n}")
        self.r_min = float(r_min)
        self.r_max = float(r_max)
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
        self._cache: dict = {}

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

    def operator_bands(self, advection: float, inv_square: float):
        """Bands (sub, diag, sup) of  d^2/dr^2 + (advection/r) d/dr - inv_square/r^2.

        In x = ln r the operator is r^-2 (d_x^2 + (advection - 1) d_x -
        inv_square), and interior row i is its centered 3-point form:
        r_i^-2 [(v_{i+1} - 2 v_i + v_{i-1})/h^2
                + (advection - 1)(v_{i+1} - v_{i-1})/(2h) - inv_square v_i].
        advection = d-1, inv_square = 0 gives the radial Laplacian in d
        dimensions, closed by zero ghost values at both ends.

        inv_square = m^2 > 0 (with advection 1) gives the singular operator
        of degree m.  Its end rows are the gradients of the tail energies
        (m/2) v_0^2 (r^m law inside r_0) and (m/2) (v_{n-1} - ghost)^2 (r^-m
        law outside r_{n-1}, ghost the offset at infinity): row 0 is
        r_0^-2 [2 (v_1 - v_0)/h^2 - (2m/h + m^2) v_0], row n-1 is
        r^-2 [2 (v_{n-2} - v_{n-1})/h^2 - (2m/h + m^2) v_{n-1} + (2m/h) ghost].
        So w_i (Op v + F(v))_i = -dE_h/dv_i for E_h of
        ``energy.node_energies`` and w the r dr weights; Op is symmetric in
        w.  Row n-1's sup entry multiplies the outer ghost value; row 0's
        sub entry is not used.
        """
        key = ("bands", advection, inv_square)
        try:
            return self._cache[key]
        except KeyError:
            pass
        h = self.log_step
        a1 = advection - 1.0
        inv_r2 = 1.0 / self.nodes**2
        sub = (1.0 / h**2 - 0.5 * a1 / h) * inv_r2
        diag = (-2.0 / h**2 - inv_square) * inv_r2
        sup = (1.0 / h**2 + 0.5 * a1 / h) * inv_r2
        if inv_square > 0:
            tail = 2.0 * np.sqrt(inv_square) / h
            sup[0] *= 2.0
            sub[-1] *= 2.0
            diag[0] -= tail * inv_r2[0]
            diag[-1] -= tail * inv_r2[-1]
            sup[-1] = tail * inv_r2[-1]
        self._cache[key] = (sub, diag, sup)
        return sub, diag, sup

    def apply_operator(self, values, advection, inv_square, ghost_outer=0.0):
        """Apply the 3-point operator of ``operator_bands``, with
        ghost_outer the outer ghost value."""
        sub, diag, sup = self.operator_bands(advection, inv_square)
        vm = np.concatenate(([0.0], values[:-1]))
        vp = np.concatenate((values[1:], [ghost_outer]))
        return sub * vm + diag * values + sup * vp

    def solve_shifted(self, rhs, alpha, advection, inv_square,
                      ghost_outer=0.0, potential=None):
        """Solve (I - alpha*(Op + potential)) u = rhs, with Op the operator
        of ``operator_bands`` and ghost_outer its outer ghost value; the
        optional potential is a nodal array added to the diagonal of Op.

        For the degree-m operator without a potential and for alpha > 0
        the system is strictly diagonally dominant, hence nonsingular: its
        off-diagonal entries are positive for any log step.  For the
        Laplacian in d dimensions the sub-diagonal is positive only for
        log step < 2/(d - 2).

        The shifted bands of the latest (alpha, advection, inv_square) are
        kept, one entry only: a run's step size moves only on rejections
        and regrowth.  Each call packs the bands and the right side into
        one new buffer for LAPACK ``dgtsv``, which overwrites it, so the
        cached bands are never written; the routine comes from numpy's
        bundled OpenBLAS, or from ``scipy.linalg.lapack`` where numpy has
        none (see the module docstring).  Raises ``numpy.linalg.LinAlgError``
        when the system is singular.
        """
        key = (alpha, advection, inv_square)
        cached = self._cache.get("shifted")
        if cached is None or cached[0] != key:
            sub, diag, sup = self.operator_bands(advection, inv_square)
            cached = (key, -alpha * sub[1:], 1.0 - alpha * diag,
                      -alpha * sup[:-1], alpha * sup[-1])
            self._cache["shifted"] = cached
        _, dl, d, du, ghost_coeff = cached
        d = d if potential is None else d - alpha * potential
        n = self.n
        buf = np.concatenate((dl, d, du, rhs), dtype=float)
        if buf.shape != (4 * n - 2,):
            # dgtsv is handed addresses into buf
            raise ContractViolation(
                "rhs and potential need one value per node")
        if ghost_outer != 0.0:
            buf[-1] += ghost_coeff * ghost_outer
        u, info = _gtsv(buf, n)
        if info > 0:
            raise np.linalg.LinAlgError("singular shifted operator")
        # u is a view of buf; a copy keeps a stored solution from holding
        # the bands too
        return u.copy()

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


def check_degree(m) -> None:
    """Reject a degree m that is not a positive integer: the tail closures
    of the degree-m operator and of the energy it descends need m >= 1."""
    if not (m >= 1 and float(m).is_integer()):
        raise ContractViolation(f"degree m must be a positive integer, got {m}")


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
    check_degree(m)
    g = field.grid
    out = g.apply_operator(field.offset, 1.0, float(m * m),
                           ghost_outer=field.outer_ghost_offset())
    if field.inner_limit != 0.0:
        out = out - m * m * field.inner_limit / g.nodes**2
    return RadialField(g, out)


def solve_helmholtz(rhs: RadialField, m: int, alpha: float) -> RadialField:
    """Solve (I - alpha * Delta_m) u = rhs with the tail closures of
    ``RadialGrid.operator_bands``, u tending to 0 at infinity."""
    if alpha <= 0:
        raise ContractViolation(f"alpha must be positive, got {alpha}")
    check_degree(m)
    u = rhs.grid.solve_shifted(rhs.values, alpha, 1.0, float(m * m))
    return RadialField(rhs.grid, u)


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
