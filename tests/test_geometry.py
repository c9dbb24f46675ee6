import math

import numpy as np
import pytest

from remvi.geometry import GeometryBundle, euclidean_block, simplex_block
from remvi.problems import generate_instance


def euclid_quad(mu=1.0, size=2):
    return GeometryBundle([euclidean_block(np.arange(size), mu=mu)])


def euclid_box(size=2, lo=-1.0, hi=1.0):
    return GeometryBundle([euclidean_block(np.arange(size), lo=lo, hi=hi)])


def entropy(size=2, anchor=None):
    return GeometryBundle([simplex_block(np.arange(size), anchor=anchor)])


def weighted(w):
    w = np.asarray(w, dtype=float)
    return GeometryBundle([euclidean_block(np.arange(w.size), weights=w)])


def mixed_bundle():
    # box pair, simplex triple, free pair, quadratic singleton
    return GeometryBundle([
        euclidean_block(np.arange(2), lo=-1.0, hi=1.0),
        simplex_block(np.arange(2, 5)),
        euclidean_block(np.arange(5, 7)),
        euclidean_block(np.array([7]), mu=0.5),
    ])


ALL_GEOMS = [euclid_quad(), euclid_box(), entropy(3), weighted([4.0, 1.0]),
             mixed_bundle()]


class TestProxClosedForms:
    def test_quadratic(self):
        geom = euclid_quad(mu=1.0)
        out = geom.prox_block(0, np.array([1.0, -1.0]), 1.0)
        np.testing.assert_allclose(out, [-0.5, 0.5])

    def test_entropy_simplex(self):
        geom = entropy(2, anchor=np.array([0.5, 0.5]))
        out = geom.prox_block(0, np.array([math.log(2.0), 0.0]), 3.7)
        np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)

    def test_box_clip(self):
        geom = euclid_box()
        out = geom.prox_block(0, np.array([3.0, -0.5]), 0.0)
        np.testing.assert_allclose(out, [-1.0, 0.5])

    def test_weighted_scaling(self):
        geom = weighted([4.0, 1.0])
        out = geom.prox_block(0, np.array([2.0, 2.0]), 0.0)
        np.testing.assert_allclose(out, [-0.5, -2.0])

    def test_entropy_overflow_safe(self):
        geom = entropy(3)
        out = geom.prox_block(0, np.array([-5000.0, 0.0, 5000.0]), 1.0)
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            euclid_quad().prox_block(0, np.array([np.nan, 0.0]), 1.0)

    def test_rejects_boundary_entropy_anchor(self):
        geom = mixed_bundle()
        anchor = geom.x0.copy()
        anchor[2:5] = [1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="interior"):
            geom.prox_full(np.zeros(geom.d), 1.0, anchor=anchor)


class TestBregman:
    def test_zero_at_equal(self):
        geom = euclid_quad()
        assert geom.bregman(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_euclidean_half_square(self):
        geom = euclid_quad()
        assert geom.bregman(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.5

    def test_kl_with_zero_coordinate(self):
        # direct KL sum with 0*log 0 = 0
        geom = entropy(2)
        val = geom.bregman(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert abs(val - math.log(2.0)) < 1e-12

    def test_rejects_boundary_second_argument(self):
        geom = entropy(2)
        with pytest.raises(ValueError):
            geom.bregman(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


class TestDualNorm:
    def test_euclidean(self):
        assert euclid_quad().dual_norm_sq(np.array([3.0, 4.0])) == 25.0

    def test_linf_for_l1_block(self):
        assert entropy(2).dual_norm_sq(np.array([3.0, -4.0])) == 16.0

    def test_inverse_weighted(self):
        assert weighted([4.0, 1.0]).dual_norm_sq(np.array([2.0, 1.0])) == 2.0


class TestBundleInvariants:
    def test_blocks_must_cover(self):
        with pytest.raises(ValueError):
            GeometryBundle([euclidean_block(np.array([0, 1]))], d=3)

    def test_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            GeometryBundle([euclidean_block(np.array([0, 1])),
                            euclidean_block(np.array([1, 2]))])

    def test_gamma_is_min_strength(self):
        geom = GeometryBundle([euclidean_block(np.array([0]), mu=0.5),
                               euclidean_block(np.array([1]), mu=2.0)])
        assert geom.gamma == 0.5
        assert mixed_bundle().gamma == 0.0

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            euclidean_block(np.arange(2), weights=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("kw, what", [
        (dict(mu=math.nan), "mu must be >= 0 and finite"),
        (dict(mu=math.inf), "mu must be >= 0 and finite"),
        (dict(mu=-1.0), "mu must be >= 0 and finite"),
        (dict(weights=[math.inf, 1.0]), "weights must be .* finite"),
        (dict(weights=[1.0, math.nan]), "weights must be .* finite"),
        (dict(lo=math.nan), "box bounds"),
        (dict(lo=-1.0, hi=[1.0, math.nan]), "box bounds"),
        (dict(lo=[0.0, 2.0], hi=1.0), "box bounds"),
        (dict(lo=math.inf), "box bounds"),
        (dict(hi=-math.inf), "box bounds"),
        (dict(anchor=[0.0, math.nan]), "anchor must be finite")])
    def test_bad_euclidean_parameters_rejected(self, kw, what):
        # each would give a NaN gamma or x0, a warning in w * x0, a silently
        # unbounded coordinate, or a box that no point lies in
        with pytest.raises(ValueError, match=what):
            euclidean_block(np.arange(2), **kw)

    def test_simplex_anchor_finite_and_box_edges_accepted(self):
        with pytest.raises(ValueError, match="anchor must be finite"):
            simplex_block(np.arange(2), anchor=[math.nan, 1.0])
        # lo == hi and one-sided infinite bounds are a box
        euclidean_block(np.arange(2), lo=[0.5, -math.inf], hi=[0.5, 1.0])


@pytest.mark.parametrize("geom", ALL_GEOMS, ids=lambda g: f"d{g.d}")
class TestProperties:
    def test_strong_convexity(self, geom):
        rng = np.random.default_rng(7)
        for _ in range(10000 // 10):
            x = geom.sample_domain(rng)
            y = geom.sample_domain(rng)
            # entropy blocks need interior second argument
            y = 0.99 * y + 0.01 * geom.x0 if geom._ent_blocks else y
            assert geom.bregman(x, y) >= 0.5 * geom.norm_sq(x - y) - 1e-12

    def test_cauchy_schwarz_duality(self, geom):
        rng = np.random.default_rng(8)
        for _ in range(10000 // 10):
            v = rng.standard_normal(geom.d)
            x = rng.standard_normal(geom.d)
            assert (v @ x) ** 2 <= geom.dual_norm_sq(v) * geom.norm_sq(x) * (1 + 1e-12)

    def test_prox_feasibility_and_optimality(self, geom):
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = rng.standard_normal(geom.d)
            A = float(rng.uniform(0.0, 5.0))
            u = geom.prox_full(z, A)
            geom.validate_domain(u, tol=1e-12)
            for b in geom._ent_blocks:
                assert abs(u[b.idx].sum() - 1.0) <= 1e-12
            obj_grad = _objective_gradient(geom, z, A, u)
            for _ in range(50):
                v = geom.sample_domain(rng)
                h = v - u
                assert obj_grad @ h >= -1e-8


def _objective_gradient(geom, z, A, u):
    """Gradient of <z,u> + A g(u) + D(u, x0) at an interior-representable u
    (indicator terms handled by feasible directions)."""
    grad = z.copy()
    ei = geom._eu_idx
    if ei.size:
        grad[ei] += (A * geom._mu[ei] * u[ei]
                     + geom._w[ei] * (u[ei] - geom.x0[ei]))
    for b in geom._ent_blocks:
        ub = np.maximum(u[b.idx], 1e-300)
        grad[b.idx] += np.log(ub / b.anchor) + 1.0
    return grad


def test_full_prox_matches_blockwise():
    geom = mixed_bundle()
    rng = np.random.default_rng(3)
    z = rng.standard_normal(geom.d)
    full = geom.prox_full(z, 2.5)
    for bi, b in enumerate(geom.blocks):
        np.testing.assert_array_equal(full[b.idx],
                                      geom.prox_block(bi, z[b.idx], 2.5))


def test_coordinate_prox_equals_blockwise_bitwise():
    geom = GeometryBundle([
        euclidean_block(np.arange(3), anchor=np.array([0.3, -0.7, 0.1]),
                        weights=np.array([0.5, 2.0, 3.0]), mu=0.25),
        simplex_block(np.arange(3, 5)),
        euclidean_block(np.array([5, 6]), lo=-0.5, hi=[0.5, 2.0]),
        euclidean_block(np.array([7]), mu=1.5, lo=0.0),
    ])
    rng = np.random.default_rng(6)
    z = 3.0 * rng.standard_normal(geom.d)
    blockwise = np.empty(geom.d)
    for bi, b in enumerate(geom.blocks):
        blockwise[b.idx] = geom.prox_block(bi, z[b.idx], 1.7)
    # any subset, any order, repeats allowed; S = 0 makes the prox input z
    # itself
    idx = np.array([7, 1, 5, 0, 6, 2, 1])
    zero = np.zeros(geom.d)
    x = np.full(geom.d, np.nan)
    assert geom.prox_into(x, idx, z, zero, 1.7) is None
    np.testing.assert_array_equal(x[idx], blockwise[idx])
    bad = z.copy()
    bad[idx[1]] = np.inf
    assert geom.prox_into(x, idx[:2], bad, zero, 1.0) == np.inf
    with pytest.raises(ValueError, match="finite"):
        geom.prox_block(0, np.array([0.0, np.inf, 0.0]), 1.0)
    with pytest.raises(ValueError, match=">= 0"):
        geom.prox_block(0, np.zeros(3), -1.0)


def test_scalar_prox_equals_array_prox_bitwise():
    # prox_into on an index array performs, coordinate by coordinate, the
    # IEEE operations of the compiled kernel's settle, written out below in
    # Python floats: the same bits on every Euclidean coordinate, inside
    # the box and clamped to either side
    geom = GeometryBundle([
        euclidean_block(np.arange(3), anchor=np.array([0.3, -0.7, 0.1]),
                        weights=np.array([0.5, 2.0, 3.0]), mu=0.25),
        simplex_block(np.arange(3, 5)),
        euclidean_block(np.array([5, 6]), lo=-0.5, hi=[0.5, 2.0]),
        euclidean_block(np.array([7]), mu=1.5, lo=0.0),
    ])
    eu = geom._eu_idx
    rng = np.random.default_rng(11)
    for A in (0.0, 1e-3, 1.7, 40.0):
        for scale in (1e-3, 1.0, 1e3):
            z = np.zeros(geom.d)
            z[eu] = scale * rng.standard_normal(eu.size)
            S = rng.standard_normal(geom.d)
            got, want = np.full(geom.d, np.nan), np.full(geom.d, np.nan)
            geom.prox_into(got, eu, z, S, A)
            for i in eu.tolist():
                u = z[i].item() + A * S[i].item()
                u = (geom._wx0[i].item() - u) / (geom._w[i].item()
                                                 + A * geom._mu[i].item())
                lo, hi = geom._lo[i].item(), geom._hi[i].item()
                want[i] = lo if u < lo else hi if u > hi else u
            np.testing.assert_array_equal(got, want)
            # the entropy coordinates are not written
            assert np.isnan(got[3:5]).all()
            if scale == 1e3:
                assert {got[5], got[6], got[7]} & {-0.5, 0.5, 2.0, 0.0}


def test_composite_norms_sum_over_blocks():
    geom = mixed_bundle()
    rng = np.random.default_rng(4)
    v = rng.standard_normal(geom.d)
    total = dual_total = 0.0
    for b in geom.blocks:
        vb = v[b.idx]
        if b.kind == "entropy":
            # ||.||_1 and its dual ||.||_inf
            total += np.sum(np.abs(vb)) ** 2
            dual_total += np.max(np.abs(vb)) ** 2
        else:
            w = b.weights if b.weights is not None else 1.0
            total += np.sum(w * vb ** 2)
            dual_total += np.sum(vb ** 2 / w)
    assert abs(geom.norm_sq(v) - total) < 1e-12
    assert abs(geom.dual_norm_sq(v) - dual_total) < 1e-12


def test_sample_domain_feasible():
    rng = np.random.default_rng(5)
    for geom in ALL_GEOMS:
        for _ in range(25):
            geom.validate_domain(geom.sample_domain(rng), tol=1e-12)


def sample_domain_before(geom, rng, sharp=False):
    """``sample_domain`` as it gathered its constants on every call."""
    x = np.empty(geom.d)
    ei = geom._eu_idx
    if ei.size:
        lo, hi, x0 = geom._lo[ei], geom._hi[ei], geom.x0[ei]
        bounded = np.isfinite(lo) & np.isfinite(hi)
        noise = rng.standard_normal(ei.size)
        vals = x0 + noise
        if sharp:
            mask = rng.random(ei.size) < max(2.0 / ei.size, 0.05)
            vals = np.where(mask, x0 + 3.0 * noise, x0)
        if bounded.any():
            if sharp:
                corner = np.where(rng.random(ei.size) < 0.5, lo, hi)
                vals = np.where(bounded, np.where(
                    rng.random(ei.size) < 0.5, corner, vals), vals)
            else:
                u = rng.random(ei.size)
                lo_b = np.where(bounded, lo, 0.0)
                span = np.where(bounded, hi - lo, 0.0)
                vals = np.where(bounded, lo_b + u * span, vals)
        x[ei] = np.clip(vals, lo, hi)
    alpha = 0.07 if sharp else 1.0
    for b in geom._ent_blocks:
        x[b.idx] = np.maximum(rng.dirichlet(np.full(b.size, alpha)), 1e-300)
    return x


def entropy_prox_before(geom, z_ent):
    """``prox_entropy`` as it allocated each of its arrays."""
    logits = geom._ent_log_anchor - z_ent
    logits -= np.maximum.reduceat(logits, geom._ent_starts).repeat(
        geom._ent_sizes)
    u = np.exp(logits)
    u /= np.add.reduceat(u, geom._ent_starts).repeat(geom._ent_sizes)
    return u


def family_geometries():
    """The four generated families' geometries and two more: simplex blocks
    of unequal sizes out of order, and boxes with an unbounded side."""
    kw = {"lad": {"density": 0.2}}
    geoms = [generate_instance(f, 12, 9, 1.0, seed=7, **kw.get(f, {})).geometry
             for f in ("matrix-game", "box-simplex", "lad", "policy-eval")]
    geoms.append(GeometryBundle([
        simplex_block(np.array([7, 1, 4])), euclidean_block(np.array([0, 5])),
        simplex_block(np.array([2, 3, 6, 8]))]))
    geoms.append(GeometryBundle([
        euclidean_block(np.arange(3), lo=[-1.0, 0.0, -np.inf],
                        hi=[np.inf, 2.0, 1.0], anchor=[0.5, 1.0, -3.0]),
        euclidean_block(np.arange(3, 6), weights=[1.0, 2.0, 3.0])]))
    return geoms


@pytest.mark.parametrize("sharp", [False, True])
def test_sample_domain_equals_per_call_gathers(sharp):
    # the constants gathered once give the same draws, byte for byte
    for geom in family_geometries():
        r_new, r_old = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(20):
            assert geom.sample_domain(r_new, sharp=sharp).tobytes() == \
                sample_domain_before(geom, r_old, sharp=sharp).tobytes()


def test_entropy_step_equals_allocating_prox():
    # the solver's entropy step writes prox_entropy(z[ent]) into x[ent],
    # byte for byte, and leaves z and the other coordinates alone
    rng = np.random.default_rng(32)
    for geom in family_geometries():
        if not geom._ent_idx.size:
            continue
        ent = geom._ent_idx
        x, z = rng.standard_normal(geom.d), np.zeros(geom.d)
        step = geom.entropy_step(x, z)
        for scale in (1e-3, 1.0, 50.0, 1e4):
            z[:] = scale * rng.standard_normal(geom.d)
            x_old, z_old = x.copy(), z.copy()
            x_old[ent] = entropy_prox_before(geom, z[ent])
            step()
            assert x.tobytes() == x_old.tobytes()
            assert z.tobytes() == z_old.tobytes()
            assert geom.prox_entropy(z[ent]).tobytes() == \
                x_old[ent].tobytes()


def test_block_order_does_not_change_results():
    # Euclidean coordinates out of order are gathered, in order they are
    # read as slices: both give the same prox bit for bit and the same norms
    blocks = [euclidean_block(np.arange(3), anchor=[0.3, -0.7, 0.1],
                              weights=[0.5, 2.0, 3.0], mu=0.25),
              euclidean_block(np.array([3, 4]), lo=-0.5, hi=[0.5, 2.0]),
              euclidean_block(np.array([5]), mu=1.5, lo=0.0)]
    in_order = GeometryBundle(blocks)
    permuted = GeometryBundle(blocks[::-1])
    rng = np.random.default_rng(12)
    for _ in range(5):
        z = 3.0 * rng.standard_normal(6)
        x = in_order.sample_domain(rng)
        anchor = in_order.sample_domain(rng)
        for A in (0.0, 1.7):
            np.testing.assert_array_equal(in_order.prox_full(z, A),
                                          permuted.prox_full(z, A))
            np.testing.assert_array_equal(
                in_order.prox_full(z, A, anchor=anchor),
                permuted.prox_full(z, A, anchor=anchor))
        for f in ("norm_sq", "dual_norm_sq", "g_value"):
            assert getattr(in_order, f)(x) == pytest.approx(
                getattr(permuted, f)(x), rel=1e-14, abs=1e-15)
        assert in_order.bregman(x, anchor) == pytest.approx(
            permuted.bregman(x, anchor), rel=1e-14, abs=1e-15)


def test_sharp_draws_center_on_a_nonzero_anchor():
    # sharp draws are the anchor plus three times the noise on a few
    # coordinates and the anchor itself elsewhere
    geom = GeometryBundle([euclidean_block(np.arange(40), anchor=np.full(40, 100.0))])
    rng = np.random.default_rng(13)
    draws = np.array([geom.sample_domain(rng, sharp=True) for _ in range(200)])
    moved = draws[draws != 100.0]
    assert moved.size > 100
    assert abs(moved.mean() - 100.0) < 1.0
    assert np.max(np.abs(draws - 100.0)) < 30.0
    plain = np.array([geom.sample_domain(rng) for _ in range(200)])
    assert abs(plain.mean() - 100.0) < 0.1


def _validate_domain_all_coordinates(geom, x, tol):
    """``validate_domain`` as it compared every Euclidean coordinate against
    its bounds, infinite ones included (the reference)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite entries")
    ei = geom._eu_idx
    if ei.size:
        xe = x[ei]
        if np.any(xe < geom._lo[ei] - tol) or np.any(xe > geom._hi[ei] + tol):
            raise ValueError("point violates box bounds")
    for b in geom._ent_blocks:
        xb = x[b.idx]
        if np.any(xb < -tol) or abs(xb.sum() - 1.0) > max(tol, 1e-8):
            raise ValueError("point outside the probability simplex")


def _domain_decision(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_validate_domain_checks_only_bounded_coordinates():
    # coordinates 0-3: one-sided, two-sided, infinite on both sides;
    # 4-5 unbounded; 6-8 a simplex
    geom = GeometryBundle([
        euclidean_block(np.arange(4), lo=[-np.inf, -1.0, 0.5, -np.inf],
                        hi=[2.0, np.inf, 3.0, np.inf]),
        euclidean_block(np.arange(4, 6)),
        simplex_block(np.arange(6, 9)),
    ])
    np.testing.assert_array_equal(geom._bounded_idx, [0, 1, 2])
    inside = np.array([0.0, 0.0, 1.0, 0.0, 5.0, -5.0, 0.2, 0.3, 0.5])
    cases = [inside]
    for tol in (0.0, 1e-9, 1e-7, 0.5):
        for i, edge in ((0, 2.0 + tol), (1, -1.0 - tol), (2, 0.5 - tol),
                        (2, 3.0 + tol)):
            toward = np.inf if edge > inside[i] else -np.inf
            for v in (edge, np.nextafter(edge, toward),
                      np.nextafter(edge, -toward)):
                x = inside.copy()
                x[i] = v
                cases.append((x, tol))
    for v in (np.nan, np.inf, -np.inf, 1e300, -1e300):
        for i in (0, 1, 3, 4, 7):
            x = inside.copy()
            x[i] = v
            cases.append(x)
    decisions = set()
    for case in cases:
        x, tol = case if isinstance(case, tuple) else (case, 1e-9)
        got = _domain_decision(geom.validate_domain, x, tol)
        assert got == _domain_decision(_validate_domain_all_coordinates,
                                       geom, x, tol)
        decisions.add(got)
    # the cases reach every outcome
    assert decisions == {None, "point violates box bounds",
                         "point has non-finite entries",
                         "point outside the probability simplex"}
