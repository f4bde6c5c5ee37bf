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

Shifted systems are solved by LAPACK: ``dptsv`` (LDL^T of the system
scaled by the r dr weights, which is symmetric) where the diagonal carries
a potential, and ``dgttrs`` on a ``dgttrf`` factorization kept per shifted
operator where it does not.  One library serves all three routines.  It is
the OpenBLAS that numpy (>= 2) wheels bundle, found as the symbols
``scipy_dptsv_64_``, ``scipy_dgttrf_64_`` and ``scipy_dgttrs_64_`` through
``numpy.linalg._umath_linalg``'s shared library, so ``import hmflow`` loads
numpy and no scipy module.  Where that module or any of the three symbols
is missing (numpy 1.x wheels, numpy built on a system LAPACK) all three
come from ``scipy.linalg.lapack``, which is then imported once, when this
module is.  Both libraries, and both routes, give the same bits.
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
    """``(ptsv, gttrf)`` on the OpenBLAS that numpy bundles (64-bit
    integers), or None unless it exports all three routines."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        sv, trf, trs = (getattr(lib, f"scipy_d{name}_64_")
                        for name in ("ptsv", "gttrf", "gttrs"))
    except (ImportError, OSError, AttributeError):
        return None
    sv.argtypes = [ctypes.c_void_p] * 7
    trf.argtypes = [ctypes.c_void_p] * 7
    # the last argument is the hidden length of the character TRANS
    trs.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t]
    sv.restype = trf.restype = trs.restype = None
    trans = ctypes.c_char(b"N")
    sizes = {}  # n -> (n, nrhs, ldb); the routines only read them

    def ptsv(d, e, b):
        n = b.shape[0]
        try:
            size = sizes[n]
        except KeyError:
            size = sizes.setdefault(n, (ctypes.c_int64 * 3)(n, 1, n))
        s = ctypes.addressof(size)
        info = ctypes.c_int64()
        sv(s, s + 8, _address(d), _address(e), _address(b), s + 16,
           ctypes.addressof(info))
        return b, info.value

    def gttrf(dl, d, du):
        n = d.shape[0]
        # dl | d | du | du2, overwritten by the factors, and the pivots
        lu = np.concatenate((dl, d, du, np.empty(n - 2)))
        ipiv = np.empty(n, dtype=np.int64)
        size = sizes.setdefault(n, (ctypes.c_int64 * 3)(n, 1, n))
        s, a = ctypes.addressof(size), _address(lu)
        factors = (a, a + 8 * (n - 1), a + 8 * (2 * n - 1),
                   a + 8 * (3 * n - 2), _address(ipiv))
        info = ctypes.c_int64()
        trf(s, *factors, ctypes.addressof(info))
        head = (ctypes.addressof(trans), s, s + 8, *factors)

        def gttrs(b):
            info = ctypes.c_int64()
            trs(*head, _address(b), s + 16, ctypes.addressof(info), 1)
            return b

        # gttrs holds only addresses; this keeps the factors alive
        gttrs.arrays = (lu, ipiv)
        return gttrs, info.value

    return ptsv, gttrf


def _scipy_lapack():
    """``(ptsv, gttrf)`` on ``scipy.linalg.lapack``."""
    from scipy.linalg.lapack import dgttrf, dgttrs, dptsv

    def ptsv(d, e, b):
        *_, u, info = dptsv(d, e, b, overwrite_d=1, overwrite_e=1,
                            overwrite_b=1)
        return u, info

    def gttrf(dl, d, du):
        *lu, info = dgttrf(dl, d, du)

        def gttrs(b):
            return dgttrs(*lu, b, overwrite_b=1)[0]

        return gttrs, info

    return ptsv, gttrf


# _ptsv(d, e, b) solves the symmetric system with diagonal d, off-diagonal
# e and right side b, and returns (solution, info); dptsv overwrites all
# three arrays, and info > 0 means the matrix is not positive definite.
# _gttrf(dl, d, du) factors a system and returns (gttrs, info): gttrs(b)
# returns the solution for the right side b, which it may overwrite, and
# never writes the factors.
_ptsv, _gttrf = _openblas_lapack() or _scipy_lapack()


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
        # the package divides by r^2 (the operator bands) and by r^4 (the
        # L4 monitor); r_min^4 must be a normal float
        if not (r_min * r_min) * (r_min * r_min) >= np.finfo(float).tiny:
            raise ConfigurationError(
                f"r_min = {r_min:g} is too small: r_min^4 is below the "
                f"smallest normal float")
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
        ghost_outer the outer ghost value.

        Row i is (sub_i v_{i-1} + diag_i v_i) + sup_i v_{i+1}, summed in
        that order, with v_{-1} = 0 and v_n = ghost_outer; the three band
        products are added into one output array.
        """
        sub, diag, sup = self.operator_bands(advection, inv_square)
        out = np.multiply(diag, values)
        band = np.multiply(sub[1:], values[:-1])
        out[1:] += band
        # the v_{-1} = 0 term can turn a -0.0 row into +0.0
        out[0] += sub[0] * 0.0
        np.multiply(sup[:-1], values[1:], out=band)
        out[:-1] += band
        out[-1] += sup[-1] * ghost_outer
        return out

    def solve_shifted(self, rhs, alpha, advection, inv_square,
                      ghost_outer=0.0, potential=None):
        """Solve (I - alpha*(Op + potential)) u = rhs, with Op the operator
        of ``operator_bands`` and ghost_outer its outer ghost value; the
        optional potential is a nodal array added to the diagonal of Op,
        and only the degree-m operator (advection 1, inv_square > 0) takes
        one: it is the operator that the r dr weights make symmetric.

        For the degree-m operator without a potential and for alpha > 0
        the system is strictly diagonally dominant, hence nonsingular: its
        off-diagonal entries are positive for any log step.  For the
        Laplacian in d dimensions the sub-diagonal is positive only for
        log step < 2/(d - 2).

        One cache entry is kept, for the latest (alpha, advection,
        inv_square): a run's step size moves only on rejections and
        regrowth.  It holds the coefficient of the ghost value and, once a
        call has asked for it, the LAPACK ``dgttrf`` factorization of the
        shifted operator (calls without a potential) or the bands of the
        shifted operator scaled by the r dr weights W (calls with one).  A
        call without a potential (IMEX2's Crank-Nicolson solve,
        ``solve_helmholtz``) is one ``dgttrs`` on a copy of the right side.
        A call with a potential (IMEX1) solves W (I - alpha*(Op +
        potential)) u = W rhs, whose matrix is symmetric, by ``dptsv``
        (LDL^T, no pivoting): the diagonal is w - alpha w diag - alpha w
        potential, the off-diagonal -alpha w_i sup_i, both built in new
        buffers that ``dptsv`` overwrites with the right side W rhs.  That
        matrix is positive definite at every alpha > 0 where the potential
        stays at or below inv_square/r^2, and for any bounded potential at
        small enough alpha; ``dptsv`` requires it to be.  Neither the bands
        nor the factors are written after they are built, so the instance
        stays safe to share across threads.  The module docstring names the
        LAPACK library.
        Raises ``numpy.linalg.LinAlgError`` when the system without a
        potential is singular, or the one with a potential is not positive
        definite.
        """
        n = self.n
        if np.shape(rhs) != (n,) or (potential is not None
                                     and np.shape(potential) != (n,)):
            # LAPACK is handed addresses into arrays sized from the grid
            raise ContractViolation(
                "rhs and potential need one value per node")
        if potential is not None and not (advection == 1.0
                                          and inv_square > 0):
            raise ContractViolation(
                "a potential needs the degree-m operator (advection 1, "
                f"inv_square > 0), got advection={advection}, "
                f"inv_square={inv_square}")
        key = (alpha, advection, inv_square)
        cached = self._cache.get("shifted")
        if cached is None or cached[0] != key:
            sup_end = self.operator_bands(advection, inv_square)[2][-1]
            cached = (key, alpha * sup_end, None, None)
            self._cache["shifted"] = cached
        _, ghost_coeff, gttrs, spd = cached
        if potential is None:
            if gttrs is None:
                sub, diag, sup = self.operator_bands(advection, inv_square)
                gttrs, info = _gttrf(-alpha * sub[1:], 1.0 - alpha * diag,
                                     -alpha * sup[:-1])
                if info > 0:
                    raise np.linalg.LinAlgError("singular shifted operator")
                self._cache["shifted"] = (key, ghost_coeff, gttrs, spd)
            u = np.array(rhs, dtype=float)
            if ghost_outer != 0.0:
                u[-1] += ghost_coeff * ghost_outer
            return gttrs(u)
        w = self.weights
        if spd is None:
            # W times the shifted operator without its potential: alpha w,
            # its diagonal and its off-diagonal (w_i sup_i = w_{i+1} sub_{i+1})
            _, diag, sup = self.operator_bands(advection, inv_square)
            aw = alpha * w
            spd = (aw, w - aw * diag, -aw[:-1] * sup[:-1])
            self._cache["shifted"] = (key, ghost_coeff, gttrs, spd)
        aw, d_free, e = spd
        d = np.multiply(aw, potential)
        np.subtract(d_free, d, out=d)
        b = np.multiply(w, rhs)
        if ghost_outer != 0.0:
            b[-1] += w[-1] * (ghost_coeff * ghost_outer)
        u, info = _ptsv(d, e.copy(), b)
        if info > 0:
            raise np.linalg.LinAlgError(
                "shifted operator is not positive definite")
        return u

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
