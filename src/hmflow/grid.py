"""Geometric grid on (0, r_max] with the r dr measure, and the radial
finite-difference operators built on it.

The grid is log-uniform: r_i = r_min * (r_max/r_min)^(i/(n-1)).  Quadrature
against the measure r dr (or r^p dr) is trapezoid rule in the log variable,
which is second order in the log spacing.  Derivative and operator stencils
are exact 3-point formulas on the non-uniform nodes (not uniform-grid
formulas applied in log space), closed with geometric ghost nodes at both
ends.  The outer ghost carries Dirichlet data.  The inner ghost follows the
regular power law r^p at the origin (p = m for the degree-m operator), or
is zero for operators without an inverse-square term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import ConfigurationError, ContractViolation


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
        self.ratio = self.nodes[1] / self.nodes[0]
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

    # ---- stencil machinery -------------------------------------------

    def _spacings(self):
        """Node spacings including the geometric ghost nodes."""
        try:
            return self._cache["spacings"]
        except KeyError:
            pass
        r = self.nodes
        r_ghost_in = r[0] / self.ratio
        r_ghost_out = r[-1] * self.ratio
        rm = np.concatenate(([r_ghost_in], r[:-1]))
        rp = np.concatenate((r[1:], [r_ghost_out]))
        hm = r - rm
        hp = rp - r
        self._cache["spacings"] = (hm, hp)
        return hm, hp

    def derivative_coeffs(self):
        """Interior 3-point first-derivative coefficients (c_minus, c_0, c_plus)."""
        hm, hp = self._spacings()
        cm = -hp / (hm * (hm + hp))
        c0 = (hp - hm) / (hm * hp)
        cp = hm / (hp * (hm + hp))
        return cm, c0, cp

    def operator_bands(self, advection: float, inv_square: float):
        """Bands (sub, diag, sup) of  d^2/dr^2 + (advection/r) d/dr - inv_square/r^2.

        advection = 1, inv_square = m^2 gives the singular radial operator
        of degree m; advection = d-1, inv_square = 0 gives the radial
        Laplacian in d dimensions.  Row n-1's sup entry multiplies the
        outer ghost value.  The inner closure is folded into row 0's
        diagonal: for inv_square > 0 the regular solution vanishes like r^p
        at the origin, p > 0 the root of p^2 + (advection - 1) p =
        inv_square (p = m for degree m), so the ghost value at r_0/ratio is
        ratio^(-p) v_0; for inv_square = 0 the ghost value is 0.  Row 0's
        sub entry is the ghost coefficient and is not used by the operator.
        """
        key = ("bands", advection, inv_square)
        try:
            return self._cache[key]
        except KeyError:
            pass
        hm, hp = self._spacings()
        r = self.nodes
        dm = 2.0 / (hm * (hm + hp))
        d0 = -2.0 / (hm * hp)
        dp = 2.0 / (hp * (hm + hp))
        cm, c0, cp = self.derivative_coeffs()
        sub = dm + advection * cm / r
        diag = d0 + advection * c0 / r - inv_square / r**2
        sup = dp + advection * cp / r
        if inv_square > 0:
            a1 = advection - 1.0
            p = 0.5 * (np.sqrt(a1 * a1 + 4.0 * inv_square) - a1)
            diag[0] += sub[0] * self.ratio ** (-p)
        self._cache[key] = (sub, diag, sup)
        return sub, diag, sup

    def apply_operator(self, values, advection, inv_square, ghost_outer=0.0):
        """Apply the 3-point operator with the inner closure of
        ``operator_bands`` and the outer Dirichlet ghost value."""
        sub, diag, sup = self.operator_bands(advection, inv_square)
        vm = np.concatenate(([0.0], values[:-1]))
        vp = np.concatenate((values[1:], [ghost_outer]))
        return sub * vm + diag * values + sup * vp

    def solve_shifted(self, rhs, alpha, advection, inv_square,
                      ghost_outer=0.0, potential=None):
        """Solve (I - alpha*(Op + potential)) u = rhs, with the inner closure
        of ``operator_bands`` and the outer Dirichlet ghost value; the
        optional potential is a nodal array added to the diagonal of Op.

        Without a potential and for alpha > 0 the system is strictly
        diagonally dominant (the off-diagonal operator entries are positive
        on a geometric grid with log spacing < 2), hence nonsingular.

        The shifted bands of the latest (alpha, advection, inv_square) are
        kept, one entry only: a run's step size moves only on rejections
        and regrowth.
        """
        key = (alpha, advection, inv_square)
        cached = self._cache.get("shifted")
        if cached is None or cached[0] != key:
            sub, diag, sup = self.operator_bands(advection, inv_square)
            cached = (key, -alpha * sub[1:], 1.0 - alpha * diag,
                      -alpha * sup[:-1], alpha * sup[-1])
            self._cache["shifted"] = cached
        _, dl, d, du, ghost_coeff = cached
        # dgtsv overwrites its bands, so it gets copies of the cached ones
        d = d.copy() if potential is None else d - alpha * potential
        b = np.array(rhs, dtype=float)
        if ghost_outer != 0.0:
            b[-1] += ghost_coeff * ghost_outer
        *_, u, info = dgtsv(dl.copy(), d, du.copy(), b,
                            overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                            overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError("singular shifted operator")
        return u

    def _derivative_rows(self):
        """The first-derivative stencil in the form ``derivative`` applies
        fastest: contiguous (c_minus, c_0, c_plus) of rows 1..n-2, and the
        one-sided second-order rows 0 and n-1 (no ghost data) as tuples of
        Python floats."""
        try:
            return self._cache["drows"]
        except KeyError:
            pass
        cm, c0, cp = self.derivative_coeffs()
        h1, h2 = np.diff(self.nodes[:3]).tolist()
        g2, g1 = np.diff(self.nodes[-3:]).tolist()
        first = (-(2 * h1 + h2) / (h1 * (h1 + h2)),
                 (h1 + h2) / (h1 * h2),
                 -h1 / (h2 * (h1 + h2)))
        last = (g1 / (g2 * (g1 + g2)),
                -(g1 + g2) / (g1 * g2),
                (2 * g1 + g2) / (g1 * (g1 + g2)))
        rows = (cm[1:-1].copy(), c0[1:-1].copy(), cp[1:-1].copy(), first, last)
        self._cache["drows"] = rows
        return rows

    def derivative(self, values: np.ndarray) -> np.ndarray:
        """First derivative of nodal samples: centered 3-point interior
        rows, one-sided second-order rows at both ends.

        Each row is summed left to right, the end rows from 0.0: the
        order of a row-by-row sparse matvec of the same stencil, so both
        give the same bits.
        """
        cm, c0, cp, first, last = self._derivative_rows()
        out = np.empty(self.n)
        mid = out[1:-1]
        np.multiply(cm, values[:-2], out=mid)
        mid += c0 * values[1:-1]
        mid += cp * values[2:]
        a, b, c = values[:3].tolist()
        out[0] = 0.0 + first[0] * a + first[1] * b + first[2] * c
        a, b, c = values[-3:].tolist()
        out[-1] = 0.0 + last[0] * a + last[1] * b + last[2] * c
        return out

    def derivative_adjoint(self, values: np.ndarray) -> np.ndarray:
        """The transpose of ``derivative`` applied to nodal samples."""
        cm, c0, cp, first, last = self._derivative_rows()
        inner = values[1:-1]
        out = np.zeros(self.n)
        out[:-2] = cm * inner
        out[1:-1] += c0 * inner
        out[2:] += cp * inner
        a = float(values[0])
        out[:3] += (first[0] * a, first[1] * a, first[2] * a)
        a = float(values[-1])
        out[-3:] += (last[0] * a, last[1] * a, last[2] * a)
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
    the inner ghost node carries that power law (see
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
        """The offset of u = 0 at infinity, the outer Dirichlet ghost
        value; 0 - inner_limit is +0.0, not -0.0, for zero-degree data."""
        return 0.0 - self.inner_limit


def build_grid(r_min: float, r_max: float, n: int) -> RadialGrid:
    """Geometric grid on [r_min, r_max] with r dr quadrature weights."""
    return RadialGrid(r_min, r_max, n)


def differentiate(field: RadialField) -> RadialField:
    """d/dr of the samples: centered interior, one-sided at the ends."""
    return RadialField(field.grid, field.grid.derivative(field.offset))


def apply_delta_m(field: RadialField, m: int) -> RadialField:
    """The singular operator (d^2/dr^2 + (1/r) d/dr - m^2/r^2) u.

    The stencil acts on the offset u - inner_limit, closed by the r^m law
    inside and by the Dirichlet value -inner_limit (u = 0) outside;
    the exact -m^2 * inner_limit / r^2 contribution of the constant is
    restored afterwards, so the returned samples are the true operator
    values.
    """
    if m < 1 or m != int(m):
        raise ContractViolation(f"degree m must be a positive integer, got {m}")
    g = field.grid
    out = g.apply_operator(field.offset, 1.0, float(m * m),
                           ghost_outer=field.outer_ghost_offset())
    if field.inner_limit != 0.0:
        out = out - m * m * field.inner_limit / g.nodes**2
    return RadialField(g, out)


def solve_helmholtz(rhs: RadialField, m: int, alpha: float) -> RadialField:
    """Solve (I - alpha * Delta_m) u = rhs with the r^m closure inside and
    a zero Dirichlet value outside."""
    if alpha <= 0:
        raise ContractViolation(f"alpha must be positive, got {alpha}")
    if m < 1 or m != int(m):
        raise ContractViolation(f"degree m must be a positive integer, got {m}")
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
