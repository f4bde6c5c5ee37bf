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

Shifted systems are solved by LAPACK.  Every one is on the degree-m
operator, which is symmetric in the r dr weights, so its systems are scaled
by them and solved by LDL^T (no pivoting): ``dptsv`` where the diagonal
carries a potential, and ``dpttrs`` on a ``dpttrf`` factorization kept per
shifted operator where it does not.  One library serves all three
routines.  It is the OpenBLAS that numpy (>= 2) wheels bundle, found as
the symbols ``scipy_dptsv_64_``, ``scipy_dpttrf_64_`` and
``scipy_dpttrs_64_`` through ``numpy.linalg._umath_linalg``'s shared
library, so ``import hmflow`` loads numpy and no scipy module.  Where that
module or any of the three symbols is missing (numpy 1.x wheels, numpy
built on a system LAPACK) all three come from ``scipy.linalg.lapack``,
which is then imported once, when this module is.  Both libraries, and
both routes, give the same bits.
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
    """``(ptsv, pttrf)`` on the OpenBLAS that numpy bundles (64-bit
    integers), or None unless it exports all three routines."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        sv, ptrf, ptrs = (getattr(lib, f"scipy_d{name}_64_")
                          for name in ("ptsv", "pttrf", "pttrs"))
    except (ImportError, OSError, AttributeError):
        return None
    sv.argtypes = ptrs.argtypes = [ctypes.c_void_p] * 7
    ptrf.argtypes = [ctypes.c_void_p] * 4
    sv.restype = ptrf.restype = ptrs.restype = None
    sizes = {}  # n -> (n, nrhs, ldb); the routines only read them

    def size_of(n):
        try:
            return sizes[n]
        except KeyError:
            return sizes.setdefault(n, (ctypes.c_int64 * 3)(n, 1, n))

    def ptsv(d, e, b):
        s = ctypes.addressof(size_of(b.shape[0]))
        info = ctypes.c_int64()
        sv(s, s + 8, _address(d), _address(e), _address(b), s + 16,
           ctypes.addressof(info))
        return b, info.value

    def pttrf(d, e):
        size = size_of(d.shape[0])
        s = ctypes.addressof(size)
        factors = (_address(d), _address(e))
        info = ctypes.c_int64()
        ptrf(s, *factors, ctypes.addressof(info))
        head = (s, s + 8, *factors)

        def pttrs(b):
            info = ctypes.c_int64()
            ptrs(*head, _address(b), s + 16, ctypes.addressof(info))
            return b

        # pttrs holds only addresses; this keeps the factors and sizes alive
        pttrs.arrays = (d, e, size)
        return pttrs, info.value

    return ptsv, pttrf


def _scipy_lapack():
    """``(ptsv, pttrf)`` on ``scipy.linalg.lapack``."""
    from scipy.linalg.lapack import dptsv, dpttrf, dpttrs

    def ptsv(d, e, b):
        *_, u, info = dptsv(d, e, b, overwrite_d=1, overwrite_e=1,
                            overwrite_b=1)
        return u, info

    def pttrf(d, e):
        *ldl, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)

        def pttrs(b):
            return dpttrs(*ldl, b, overwrite_b=1)[0]

        return pttrs, info

    return ptsv, pttrf


# _ptsv(d, e, b) solves the symmetric system with diagonal d, off-diagonal
# e and right side b, and returns (solution, info); dptsv overwrites all
# three arrays, and info > 0 means the matrix is not positive definite.
# _pttrf(d, e) factors such a system by dpttrf in the arrays d and e, which
# it keeps, and returns (solve, info), where solve(b) returns the solution
# for the right side b by dpttrs, may overwrite b, and never writes the
# factors; info > 0 means the matrix is not positive definite.
_ptsv, _pttrf = _openblas_lapack() or _scipy_lapack()


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

    def _weighted_bands(self, inv_square):
        """Bands of W times the degree-m operator, W the r dr weights: its
        diagonal w diag, its off-diagonal negated, -w_i sup_i (which equals
        -w_{i+1} sub_{i+1}, the symmetry of ``operator_bands``), and the
        coefficient w_{n-1} sup_{n-1} of the outer ghost value."""
        key = ("weighted", inv_square)
        try:
            return self._cache[key]
        except KeyError:
            pass
        _, diag, sup = self.operator_bands(1.0, inv_square)
        w = self.weights
        bands = (w * diag, -(w[:-1] * sup[:-1]), w[-1].item() * sup[-1].item())
        self._cache[key] = bands
        return bands

    def solve_shifted(self, rhs, alpha, inv_square, ghost_outer=0.0,
                      potential=None):
        """Solve a shifted system of the degree-m operator Op of
        ``operator_bands`` (advection 1, inv_square = m^2 > 0), with
        ghost_outer its outer ghost value, under one of two contracts; W is
        the diagonal of the r dr weights w.

        - With a potential: (W/alpha - W Op - diag(potential)) u = rhs,
          with the ghost term w_{n-1} sup_{n-1} ghost_outer added to the
          last row of rhs.  This is IMEX1's Newton system as it stands
          (rhs = -grad E_h, potential = W F'); its matrix is symmetric, and
          ``dptsv`` (LDL^T, no pivoting) solves it on a diagonal d_free -
          potential built in a new array, with d_free = w/alpha - w diag
          kept per key.  The matrix is positive definite at every alpha > 0
          where the potential stays at or below w inv_square/r^2, and for
          any bounded potential at small enough alpha; ``dptsv`` requires
          it to be.
        - Without a potential: (I - alpha Op) u = rhs (IMEX2's
          Crank-Nicolson solve, ``solve_helmholtz``).  The system is solved
          as W (I - alpha Op) u = W rhs, whose matrix is symmetric and, for
          alpha > 0, strictly diagonally dominant with a positive diagonal,
          hence positive definite: its LDL^T is factored by ``dpttrf`` once
          per key, and each call is one ``dpttrs`` on W rhs, a new array.

        Both need inv_square > 0: the tail rows it brings make Op
        symmetric in W.  One cache entry is kept, for the latest (alpha,
        inv_square): a run's step size moves only on rejections and
        regrowth.  It holds, once a call has asked for them, the
        factorization and d_free; the weighted off-diagonal -w_i sup_i
        does not depend on alpha and is kept per operator.  No argument is
        written, and neither the bands nor the factors are written after
        they are built, so the instance stays safe to share across
        threads.  The module docstring names the LAPACK library.
        Raises ``numpy.linalg.LinAlgError`` when the system is not
        positive definite.
        """
        n = self.n
        if np.shape(rhs) != (n,) or (potential is not None
                                     and np.shape(potential) != (n,)):
            # LAPACK is handed addresses into arrays sized from the grid
            raise ContractViolation(
                "rhs and potential need one value per node")
        if not inv_square > 0:
            raise ContractViolation(
                "shifted solves need the degree-m operator (inv_square > 0), "
                f"got inv_square={inv_square}")
        key = (alpha, inv_square)
        cached = self._cache.get("shifted")
        if cached is None or cached[0] != key:
            cached = (key, None, None)
            self._cache["shifted"] = cached
        _, solve, d_free = cached
        w = self.weights
        w_diag, e, ghost_coeff = self._weighted_bands(inv_square)
        if potential is None:
            if solve is None:
                solve, info = _pttrf(w - alpha * w_diag, alpha * e)
                if info > 0:
                    raise np.linalg.LinAlgError(
                        "shifted operator is not positive definite")
                self._cache["shifted"] = (key, solve, d_free)
            b = np.multiply(w, rhs)
            if ghost_outer != 0.0:
                b[-1] += (alpha * ghost_coeff) * ghost_outer
            return solve(b)
        if d_free is None:
            d_free = w / alpha - w_diag
            self._cache["shifted"] = (key, solve, d_free)
        d = np.subtract(d_free, potential)
        b = np.array(rhs, dtype=float)
        if ghost_outer != 0.0:
            b[-1] += ghost_coeff * ghost_outer
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
    u = rhs.grid.solve_shifted(rhs.values, alpha, float(m * m))
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
