import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (gaussian_bump, same_bits, seeded_states,
                      trig_probe_points)
from hmflow.bubble import BubbleProfile, sample_Q
from hmflow.energy import (_half_turn_radius, classify, energy,
                           exterior_energy, g_functional,
                           g_inverse, gradient_weights, hessian_potential,
                           neg_gradient, pointwise_bound_check, rlp_norm,
                           sin_terms, smoothstep, tail_gradient_gap,
                           topological_bound_gap, xp_norm)
from hmflow.errors import ContractViolation, SectorError
from hmflow.evolve import nonlinearity
from hmflow.grid import RadialField, apply_delta_m, build_grid, differentiate


def test_energy_breakdown_sums(default_grid):
    f = RadialField(default_grid, gaussian_bump(default_grid))
    eb = energy(f, 2)
    assert eb.total == pytest.approx(eb.dirichlet + eb.potential)
    assert eb.dirichlet > 0 and eb.potential > 0


def test_energy_of_bubble_sample(default_grid):
    # E_h of the sampled bubble lands near 2m
    f = sample_Q(BubbleProfile(2), default_grid)
    assert energy(f, 2).total == pytest.approx(4.0, rel=1e-4)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bubble_energy_does_not_rise_toward_r_min(m):
    # E_h's inner tail is the bubble's own core energy, so a bubble that
    # shrinks toward r_min meets no energy barrier the gate cannot climb;
    # the quadratic tail (m/2) v_0^2 raised E_h(Q_s) at s = 2 r_min by
    # 3.0e-2, 4.8e-3, 4.7e-4 and 3.8e-5 for m = 1-4, and an m = 1 collapse
    # stalled above 10 r_min
    g = build_grid(1e-6, 1e2, 3072)
    wide = energy(sample_Q(BubbleProfile(m, 1e-2), g), m).total
    for k in (300, 100, 30, 10, 5, 2):
        e = energy(sample_Q(BubbleProfile(m, k * g.r_min), g), m).total
        assert e <= wide + 1e-8 * 2 * m, k


def _neg_gradient(g, off, m, inner):
    """-grad E_h of the offset by ``neg_gradient``'s edge form, from
    fresh edges and trig terms."""
    return neg_gradient(g, off, np.diff(off), sin_terms(off)[1], m,
                        0.0 - inner, gradient_weights(g, m)[0])


@pytest.mark.parametrize("inner", [0.0, np.pi], ids=["zero_degree",
                                                     "degree_m"])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_operator_is_the_gradient_of_the_energy(m, inner):
    # w_i (Delta_m u + F(u))_i = -dE_h/du_i with w the r dr weights, plus
    # the inner tail's gap at node 0: the scheme's operator, and the edge
    # form IMEX1 solves with, are the exact gradient of the energy it
    # reports, so central differences of E_h match both to their own error
    g = build_grid(1e-3, 1e2, 64)
    rng = np.random.default_rng(7 * m + int(inner))
    off = 0.5 * rng.standard_normal(g.n)
    u = RadialField(g, off, inner_limit=inner)
    flow = apply_delta_m(u, m).values + nonlinearity(u, m).values
    flow[0] += tail_gradient_gap(m, off[0]) / g.weights[0]
    eps = 1e-6
    grad = np.empty(g.n)
    for i in range(g.n):
        step = np.zeros(g.n)
        step[i] = eps
        e_plus = energy(RadialField(g, off + step, inner), m).total
        e_minus = energy(RadialField(g, off - step, inner), m).total
        grad[i] = (e_plus - e_minus) / (2 * eps)
    ref = -grad / g.weights
    assert np.max(np.abs(flow - ref)) <= 1e-6 * np.max(np.abs(ref))
    # the edge form is in W units, -grad E_h itself
    edge = _neg_gradient(g, off, m, inner)
    assert np.max(np.abs(edge + grad)) <= 1e-6 * np.max(np.abs(grad))


@pytest.mark.parametrize("inner", [0.0, np.pi], ids=["zero_degree",
                                                     "degree_m"])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_hessian_is_the_jacobian_of_the_gradient(m, inner):
    # -grad^2 E_h = W Op + diag(W F'), with the inner tail's m (1 - cos v_0)
    # at node 0 (IMEX1 solves with W/dt minus it), is the central-difference
    # Jacobian of neg_gradient; a change to a tail of the gradient or to
    # the potential's Hessian breaks it
    g = build_grid(1e-3, 1e2, 64)
    rng = np.random.default_rng(11 * m + int(inner))
    off = 0.5 * rng.standard_normal(g.n)
    sub, diag, sup = g.operator_bands(float(m * m))
    w = g.weights
    want = (np.diag(w * diag) + np.diag(w[1:] * sub[1:], -1)
            + np.diag(w[:-1] * sup[:-1], 1))
    want += np.diag(hessian_potential(sin_terms(off)[0],
                                      gradient_weights(g, m)[1], m, off[0]))
    eps = 1e-6
    jac = np.empty((g.n, g.n))
    for j in range(g.n):
        step = np.zeros(g.n)
        step[j] = eps
        jac[:, j] = (_neg_gradient(g, off + step, m, inner)
                     - _neg_gradient(g, off - step, m, inner)) / (2 * eps)
    assert np.max(np.abs(jac - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("inner", [0.0, np.pi], ids=["zero_degree",
                                                     "degree_m"])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_edge_gradient_matches_the_operator_form(m, inner):
    # the two spellings of -grad E_h, neg_gradient's edges and sin cos and
    # W (Delta_m + F) of the operator bands and F with the inner tail's gap
    # at node 0, agree to rounding on seeded bumps and bubbles at three
    # resolutions
    for n in (64, 256, 2048):
        g = build_grid(1e-4, 1e3, n)
        rng = np.random.default_rng(n + 10 * m + int(inner))
        for off in seeded_states(g, m, inner, rng, 4):
            u = RadialField(g, off, inner)
            want = g.weights * (apply_delta_m(u, m).values
                                + nonlinearity(u, m).values)
            want[0] += tail_gradient_gap(m, off[0])
            got = _neg_gradient(g, off, m, inner)
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_x2_norm_small_angle_limit(default_grid):
    # for small fields sin u ~ u, so 2 E ~ ||u||_{X^2}^2
    f = RadialField(default_grid, 1e-4 * gaussian_bump(default_grid))
    assert xp_norm(f, 2, 2) ** 2 == pytest.approx(2 * energy(f, 2).total,
                                                  rel=1e-6)


def test_norm_validation(default_grid):
    f = RadialField(default_grid, gaussian_bump(default_grid))
    with pytest.raises(ContractViolation):
        xp_norm(f, 2, 0.5)
    with pytest.raises(ContractViolation):
        rlp_norm(f, 0.5)
    assert xp_norm(f, 2, 2.0) > 0
    assert rlp_norm(f, 4.0) > 0


def test_sup_norms(default_grid):
    # p = inf is the sup over the nodes, and the X^inf norm is the limit
    # max(sup |u_r|, m sup |u/r|) of the X^p family
    g = default_grid
    f = RadialField(g, gaussian_bump(g))
    u_r = differentiate(f).values
    assert g.lp_norm(-f.values, np.inf) == np.max(f.values)
    assert xp_norm(f, 2, np.inf) == max(np.max(np.abs(u_r)),
                                        2 * np.max(np.abs(f.values / g.nodes)))


def test_xp_norm_tends_to_its_sup_limit(default_grid):
    # the X^p norms tend to max(sup|u_r|, m sup|u/r|) as p grows; on the
    # bump, whose m sup|u/r| (0.858) exceeds sup|u_r| (0.587), p = 200
    # reads 0.846
    g = default_grid
    f = RadialField(g, gaussian_bump(g))
    limit = xp_norm(f, 2, np.inf)
    assert limit == pytest.approx(0.858, abs=1e-3)
    gaps = [limit - xp_norm(f, 2, p) for p in (10, 25, 50, 100, 200)]
    assert xp_norm(f, 2, 200) == pytest.approx(0.846, abs=1e-3)
    assert all(abs(b) < abs(a) for a, b in zip(gaps, gaps[1:]))
    assert abs(gaps[-1]) < 0.02 * limit


def test_classify_sectors(default_grid):
    g = default_grid
    small = RadialField(g, 0.3 * gaussian_bump(g))
    assert classify(small, 2).label == "E0"
    assert classify(small, 2).delta1 == pytest.approx(
        8.0 - energy(small, 2).total)
    bub = sample_Q(BubbleProfile(2), g)
    assert classify(bub, 2).label == "E1"
    # E_h of an exact bubble lies just below 2m for m = 3 and 4 (-4.6e-5
    # and -1.1e-4 here); it is still degree-m data
    for m in (3, 4):
        assert classify(sample_Q(BubbleProfile(m), g), m).label == "E1"
    big = RadialField(g, 4.0 * gaussian_bump(g))
    assert classify(big, 2).label not in ("E0",) or energy(big, 2).total < 8.0


def test_g_functional_landmarks():
    for m in (1, 2, 3):
        assert g_functional(np.pi, m) == pytest.approx(2.0 * m)
        assert g_functional(-np.pi, m) == pytest.approx(-2.0 * m)
        assert g_functional(0.0, m) == 0.0
        assert g_functional(np.pi / 2, m) == pytest.approx(m)


@given(u=st.floats(-10.0, 10.0), m=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_g_inverse_roundtrip(u, m):
    assert float(g_inverse(g_functional(u, m), m)) == pytest.approx(
        u, abs=1e-9)


def test_g_functional_monotone():
    u = np.linspace(-8, 8, 2001)
    assert np.all(np.diff(g_functional(u, 2)) > 0)


def test_pointwise_bound(default_grid):
    g = default_grid
    f = RadialField(g, 0.5 * gaussian_bump(g))
    delta2, ok = pointwise_bound_check(f, 2, delta1=1.6)
    assert 0 < delta2 < np.pi
    assert ok
    with pytest.raises(ContractViolation):
        pointwise_bound_check(f, 2, delta1=-1.0)
    # a delta1 above the field's own margin 4m - E
    with pytest.raises(SectorError, match="exceeds 4m - delta1"):
        pointwise_bound_check(f, 2, delta1=classify(f, 2).delta1 + 0.1)
    bub = sample_Q(BubbleProfile(2), g)
    with pytest.raises(SectorError):
        pointwise_bound_check(bub, 2, delta1=1.6)


def test_topological_bound_gap(default_grid):
    g = default_grid
    # the bubble saturates the bound: gap ~ quadrature error
    bub = sample_Q(BubbleProfile(2), g)
    assert abs(topological_bound_gap(bub, 2)) < 1e-3
    # zero-degree data: gap equals the full energy
    f = RadialField(g, gaussian_bump(g))
    assert topological_bound_gap(f, 2) == energy(f, 2).total


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("r_min,r_max,n", [(1e-4, 1e3, 2048),
                                           (1e-6, 1e2, 3072)])
def test_topological_bound_gap_on_exact_bubbles(m, r_min, r_max, n):
    # E_h of an exact bubble lies below 2m by discretization error (-1.1e-4
    # for m = 4 on the default grid), which the -1e-6 contract used to
    # reject; the bound is E_h of the grid's own bubble at the field's
    # scale, so exact bubbles saturate it at every scale the grid holds
    g = build_grid(r_min, r_max, n)
    for ln_s in np.linspace(np.log(r_min) + 2.0, np.log(r_max) - 2.0, 9):
        bub = sample_Q(BubbleProfile(m, s=float(np.exp(ln_s))), g)
        assert abs(topological_bound_gap(bub, m)) <= 1e-9 * 2 * m


def test_topological_bound_gap_without_a_crossing(default_grid):
    # a bubble wider than the grid has no half-turn crossing on it, so the
    # bound is the bubble at the grid's geometric midpoint
    g = default_grid
    f = sample_Q(BubbleProfile(2, s=1e6), g)
    assert np.isnan(_half_turn_radius(g, f.offset, 2))
    mid = sample_Q(BubbleProfile(2, s=float(np.sqrt(g.r_min * g.r_max))), g)
    assert topological_bound_gap(f, 2) == (energy(f, 2).total
                                           - energy(mid, 2).total)


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("r_min,r_max,n", [(1e-3, 1e2, 64),
                                           (1e-4, 1e3, 2048)])
def test_half_turn_radius_inside_r_min(m, r_min, r_max, n):
    # a bubble whose crossing lies inside r_min has node 0 already past
    # -pi/2; the radius is that of the bubble through v_0, which used to
    # read NaN and kept such a run from its Blowup verdict
    g = build_grid(r_min, r_max, n)
    for ratio in (0.9, 0.5, 0.1, 0.01):
        s = ratio * r_min
        got = _half_turn_radius(g, sample_Q(BubbleProfile(m, s=s), g).offset,
                                m)
        assert abs(got / s - 1.0) <= 1e-9
    # past -pi the radius stays finite and positive
    for v0 in (-np.pi, -3.5, -2.0 * np.pi):
        got = _half_turn_radius(g, np.full(n, v0), m)
        assert 0.0 < got < r_min


def test_smoothstep_shape():
    assert smoothstep(-1.0) == 0.0
    assert smoothstep(0.0) == 0.0
    assert smoothstep(0.5) == pytest.approx(0.5)
    assert smoothstep(1.0) == 1.0
    assert smoothstep(2.0) == 1.0
    x = np.linspace(0, 1, 200)
    assert np.all(np.diff(smoothstep(x)) >= 0)


def test_exterior_energy(default_grid):
    g = default_grid
    f = RadialField(g, gaussian_bump(g))  # supported near r ~ 1
    total = energy(f, 2).total
    assert exterior_energy(f, 2, 2 * g.r_min) == pytest.approx(total, rel=1e-6)
    assert exterior_energy(f, 2, 50.0) < 1e-10 * total
    # monotone in R
    radii = [0.1, 1.0, 10.0, 100.0]
    vals = [exterior_energy(f, 2, R) for R in radii]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ContractViolation):
        exterior_energy(f, 2, 1e-6)


def test_sin_terms_against_mpmath():
    # sin^2 v and sin v cos v from one tangent, within a few ulp of
    # 200-bit arithmetic, on small offsets and next to the pole of tan
    import mpmath

    mpmath.mp.prec = 200
    v = trig_probe_points()
    sin_sq, sin_cos = sin_terms(v)
    want_sq = np.array([float(mpmath.sin(x) ** 2) for x in v.tolist()])
    want_sc = np.array([float(mpmath.sin(x) * mpmath.cos(x))
                        for x in v.tolist()])
    assert np.all(np.abs(sin_sq - want_sq) <= 4 * np.spacing(want_sq))
    assert np.all(np.abs(sin_cos - want_sc) <= 3 * np.spacing(np.abs(want_sc)))


def test_sin_terms_keeps_its_bits_across_layouts():
    # the stepper calls sin_terms on whole offsets, on spans and on views;
    # every piece must get the bits it gets inside the whole array
    rng = np.random.default_rng(21)
    n = 3072
    whole = np.concatenate([-rng.uniform(0.0, np.pi, n // 2),
                            rng.uniform(-1e-3, 1e-3, n // 4),
                            rng.uniform(-4.0, 4.0, n // 4)])
    rng.shuffle(whole)
    want = sin_terms(whole)
    for _ in range(200):
        cuts = np.sort(rng.choice(np.arange(1, n), rng.integers(1, 8),
                                  replace=False))
        parts = [sin_terms(p) for p in np.split(whole, cuts)]
        for k in (0, 1):
            assert same_bits(np.concatenate([p[k] for p in parts]), want[k])
    # views at odd element offsets, one byte past alignment, and strided
    views = [np.empty(n + k)[k:] for k in (1, 3)]
    views.append(np.frombuffer(bytearray(8 * n + 1), offset=1, count=n))
    assert not views[-1].flags.aligned
    views.append(np.empty(2 * n)[::2])
    for data in views:
        data[...] = whole
        got = sin_terms(data)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
