import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raylift import (
    Field,
    align_dist,
    lift,
    lift_dist,
    ray,
    schatten_norm,
    sym_outer,
    unlift,
    vec,
)

from raylift.metrics import _lift_dist_stack

from oracles import align_dist_scan, random_vector, svd_schatten

SQ2 = math.sqrt(2)


def _rray(rng, n, field, scale=1.0):
    return ray(vec(scale * random_vector(rng, n, field is Field.COMPLEX), field))


class TestCanonicalization:
    def test_real_sign(self):
        assert np.array_equal(ray(vec([-1.0, 0.0])).rep.entries, [1.0, 0.0])

    def test_complex_phase(self):
        r = ray(vec(np.array([1j, 1.0 + 0j])))
        assert np.allclose(r.rep.entries, [1.0, -1j], atol=1e-15)

    def test_huge_entries_one_ray(self, field):
        """Entries of 1e200, whose squares overflow, still pick the pivot by
        1e-12 ||x||, so x and -x (i x and x in the complex field) give one
        canonical representative."""
        x = np.array([-1e200, 1e200], dtype=field.dtype)
        y = 1j * x if field is Field.COMPLEX else -x
        assert ray(vec(x, field)) == ray(vec(y, field))
        assert np.array_equal(ray(vec(y, field)).rep.entries, [1e200, -1e200])

    def test_overflowing_norm_one_ray(self):
        """||x|| above the float range: the pivot is still chosen by
        1e-12 ||x||, taken as 1e-12 top ||x / top||, so x and -x give one
        representative, whose pivot is positive real."""
        x = np.array([-1.5e308, 1.5e308])
        assert ray(vec(x)) == ray(vec(-x))
        assert np.array_equal(ray(vec(x)).rep.entries, [1.5e308, -1.5e308])
        z = np.array([-1e308j, 1.7e308])
        rep = ray(vec(z)).rep.entries
        assert ray(vec(z)) == ray(vec(-z))
        assert rep[0] == 1e308 and np.allclose(rep, [1e308, 1.7e308j], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("x", [
        [-1.5e308 + 1.5e308j, 1.0],
        [1.5e308 - 1.5e308j, -1.0],
        [complex(*map(float.fromhex, ("0x1.7c34987e97438p+996", "0x1.3d00e32e62a2bp+993"))),
         complex(*map(float.fromhex, ("0x1.fd3de47d8dcc9p+1023", "0x1.a897058f67ab2p+1020")))],
    ])
    def test_overflowing_modulus_has_no_representative(self, x):
        """A pivot whose modulus, 2.1e308, exceeds the float range would be
        that as a positive real, and an entry within ulps of the range,
        turned by the pivot's phase, rounds past it: no finite canonical
        representative exists, and ``ray`` refuses it as it refuses a
        non-finite vector."""
        with pytest.raises(ValueError, match="^vector has non-finite entries$"):
            ray(vec(x))

    def test_overflowing_modulus_past_the_pivot(self):
        """An entry of modulus 2.1e308 after a positive real pivot, which
        the pivot test against 1e-12 ||x|| still finds: x is its own
        finite representative."""
        x = np.array([1e300, 1.5e308 + 1.5e308j])
        assert np.array_equal(ray(vec(x)).rep.entries, x)

    def test_zero_fixed(self):
        r = ray(vec([0.0, 0.0]))
        assert np.array_equal(r.rep.entries, [0.0, 0.0])

    def test_phase_orbit_collapses(self, rng, field):
        for _ in range(50):
            x = random_vector(rng, 4, field is Field.COMPLEX)
            if field is Field.COMPLEX:
                a = np.exp(1j * rng.uniform(0, 2 * np.pi))
            else:
                a = rng.choice([-1.0, 1.0])
            r1 = ray(vec(x, field))
            r2 = ray(vec(a * x, field))
            assert np.max(np.abs(r1.rep.entries - r2.rep.entries)) <= 1e-12 * np.linalg.norm(x)

    def test_idempotent_bitwise(self, rng, field):
        """A canonical representative is its own canonical representative,
        to the bit: a real positive pivot is not multiplied by a phase that
        rounds below 1."""
        for _ in range(2000):
            r = ray(vec(random_vector(rng, 5, field is Field.COMPLEX), field)).rep
            assert ray(r).rep.entries.tobytes() == r.entries.tobytes()


    @pytest.mark.parametrize("x, y", [
        ([-1j, 2.0], [1j, -2.0]),
        ([-1.0, 1j], [1.0, complex(0.0, -1.0)]),
        ([1.0, complex(-0.0, 2.0)], [1.0, 2j]),
        ([1.0, -0.0], [1.0, 0.0]),
        ([-0.0, 0.0], [0.0, 0.0]),
    ])
    def test_signed_zeros_one_representative(self, x, y):
        """x and y lie on one ray and differ, after the pivot's phase, only
        in the sign of a zero: their representatives have the same bytes."""
        assert ray(vec(x)).rep.entries.tobytes() == ray(vec(y)).rep.entries.tobytes()

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, -0.5, 1.0, -3.0, 2.0]), st.booleans(),
                              st.sampled_from([0.0, -0.0])), min_size=1, max_size=5),
           st.booleans(), st.sampled_from([1.0, -1.0, 1j, -1j]))
    @settings(max_examples=300, deadline=None)
    def test_axis_entries_have_unsigned_zeros(self, entries, cplx, unit):
        """Entries on an axis, with zero parts of either sign: every product
        on the way to a representative is exact, so x and unit * x give the
        same bytes, and no zero part of a representative is -0.0."""
        if cplx:
            x = np.array([complex(z, v) if imag else complex(v, z) for v, imag, z in entries])
        else:
            x = np.array([v if v else z for v, _, z in entries])
            unit = unit.real or 1.0
        rep = ray(vec(x)).rep.entries
        parts = rep.view(np.float64)
        assert not np.signbit(parts[parts == 0.0]).any()
        assert ray(vec(unit * x)).rep.entries.tobytes() == rep.tobytes()


class TestAlignDist:
    def test_same_ray_zero(self, rng, field):
        x = _rray(rng, 3, field)
        assert align_dist(x, x, 2) == 0.0

    def test_reference_triple(self):
        y1, y2, y3 = (ray(vec(v)) for v in ([3.0, 1.0], [-1.0, 1.0], [0.0, 1.0]))
        assert align_dist(y1, y2, 2) == pytest.approx(2 * SQ2, abs=1e-12)
        assert align_dist(y2, y3, 2) == pytest.approx(1.0, abs=1e-12)
        assert align_dist(y1, y3, 2) == pytest.approx(3.0, abs=1e-12)

    def test_complex_p2_closed_form_vs_scan(self, rng):
        for _ in range(10):
            x = ray(vec(random_vector(rng, 3, True)))
            y = ray(vec(random_vector(rng, 3, True)))
            got = align_dist(x, y, 2)
            want = align_dist_scan(x.rep.entries, y.rep.entries, 2)
            assert abs(got - want) <= 1e-7

    @pytest.mark.parametrize("p", [1, 3, math.inf])
    def test_complex_grid_vs_scan(self, rng, p):
        # the scan oracle is an upper bound for the true minimum with error
        # bounded by its resolution times the objective's slope
        for _ in range(5):
            x = ray(vec(random_vector(rng, 3, True)))
            y = ray(vec(random_vector(rng, 3, True)))
            got = align_dist(x, y, p)
            want = align_dist_scan(x.rep.entries, y.rep.entries, np.inf if p == math.inf else p)
            assert got <= want + 1e-12
            assert want - got <= 1e-4

    @pytest.mark.parametrize("phi", [0.0, 0.7, 2.1])
    @pytest.mark.parametrize("delta", [1e-6, 1e-9])
    def test_complex_p2_close_rays(self, phi, delta):
        """Rays a distance delta apart, whatever the phase of the second
        representative: sqrt(||x||^2 + ||y||^2 - 2 |<x, y>|) cancels to 0
        at delta = 1e-9."""
        x = ray(vec(np.array([1.0, 0.0, 0.0], dtype=complex)))
        y = ray(vec(np.exp(1j * phi) * np.array([1.0, delta, 0.0])))
        assert abs(align_dist(x, y, 2) - delta) <= 1e-12 * delta

    def test_p_validation(self):
        x = ray(vec([1.0, 0.0]))
        with pytest.raises(ValueError):
            align_dist(x, x, 0.5)


class TestLiftDist:
    def test_reference_complex_pair(self):
        y1 = ray(vec(np.array([1.0, 1.0 - 1j])))
        y2 = ray(vec(np.array([1.0 + 1j, 1.0])))
        assert lift_dist(y1, y2, 2) == pytest.approx(SQ2, abs=1e-12)

    def test_nuclear_of_orthogonal_units(self):
        x, y = ray(vec([1.0, 0.0])), ray(vec([0.0, 1.0]))
        assert lift_dist(x, y, 1) == pytest.approx(2.0, abs=1e-14)

    def test_frobenius_example(self):
        x, y = ray(vec([1.0, 0.0])), ray(vec([1.0, 1.0]))
        # sqrt(1 + 4 - 2) and the SVD of the explicit difference agree
        assert lift_dist(x, y, 2) == pytest.approx(math.sqrt(3), abs=1e-14)
        d = sym_outer(x.rep, x.rep).entries - sym_outer(y.rep, y.rep).entries
        assert lift_dist(x, y, 2) == pytest.approx(svd_schatten(d, 2), abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, math.inf, 3.0])
    def test_closed_forms_vs_svd_oracle(self, rng, field, p):
        for _ in range(100):
            x = _rray(rng, 4, field)
            y = _rray(rng, 4, field)
            d = sym_outer(x.rep, x.rep).entries - sym_outer(y.rep, y.rep).entries
            want = svd_schatten(d, np.inf if p == math.inf else p)
            assert abs(lift_dist(x, y, p) - want) <= 1e-10 * max(1.0, want)


    @pytest.mark.parametrize("p", [1, 2, math.inf, 3.0])
    def test_cone_point(self, rng, field, p):
        """[0,0] - [y,y] has the one nonzero eigenvalue -||y||^2."""
        y = _rray(rng, 4, field)
        zero = ray(vec(np.zeros(4, dtype=field.dtype), field))
        want = float(np.vdot(y.rep.entries, y.rep.entries).real)
        assert lift_dist(zero, y, p) == pytest.approx(want, rel=1e-15)
        assert lift_dist(y, zero, p) == pytest.approx(want, rel=1e-15)
        assert lift_dist(zero, zero, p) == 0.0

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_batch_near_coincident_vs_svd_oracle(self, rng, field, p):
        """The batched kernel on nearly coincident rows, where the closed
        forms cancel: y = x + sep ||x|| e with e a unit vector."""
        cplx = field is Field.COMPLEX
        for sep in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
            x = np.stack([random_vector(rng, 4, cplx) for _ in range(20)])
            e = np.stack([random_vector(rng, 4, cplx) for _ in range(20)])
            e *= (sep * np.linalg.norm(x, axis=1) / np.linalg.norm(e, axis=1))[:, None]
            y = x + e
            got = _lift_dist_stack(x, y, p)
            for k in range(x.shape[0]):
                d = np.outer(x[k], x[k].conj()) - np.outer(y[k], y[k].conj())
                want = svd_schatten(d, np.inf if p == math.inf else p)
                scale = np.vdot(x[k], x[k]).real + np.vdot(y[k], y[k]).real
                assert abs(got[k] - want) <= 1e-14 * scale
                assert lift_dist(ray(vec(x[k])), ray(vec(y[k])), p) == pytest.approx(
                    got[k], rel=1e-4
                )


class TestMetricAxioms:
    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_axioms_random_triples(self, rng, field, p):
        for _ in range(60):
            x, y, z = (_rray(rng, 3, field) for _ in range(3))
            for dist in (align_dist, lift_dist):
                dxy, dyx = dist(x, y, p), dist(y, x, p)
                assert dxy == pytest.approx(dyx, abs=1e-12)
                assert dist(x, x, p) <= 1e-12
                assert dxy <= dist(x, z, p) + dist(z, y, p) + 1e-12

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    )
    # entrywise 1e-5 apart: the same ray under allclose's default rtol
    @example(xs=[2.0, 2.0, 0.0], ys=[2.0, 2.00001, 0.0])
    @settings(max_examples=200, deadline=None)
    def test_zero_iff_same_ray_real(self, xs, ys):
        """Representatives within atol of each other, entry by entry, lie
        within (||x|| + ||y||) sqrt(3) atol in the lift metric, since
        [x,x] - [y,y] = x (x - y)* + (x - y) y*; any others lie apart."""
        x = ray(vec(np.asarray(xs)))
        y = ray(vec(np.asarray(ys)))
        atol = 1e-9
        same = np.allclose(x.rep.entries, y.rep.entries, rtol=0, atol=atol)
        d = lift_dist(x, y, 2)
        if same:
            assert d <= 2 * (x.norm() + y.norm()) * atol
        else:
            assert d > 0


class TestEquivalenceConstants:
    PQ = [(1, 2), (1, math.inf), (2, math.inf)]

    @pytest.mark.parametrize("p,q", PQ)
    def test_align_family(self, rng, field, p, q):
        n = 4
        expo = (1.0 / p) - (0.0 if q == math.inf else 1.0 / q)
        for _ in range(100):
            x, y = _rray(rng, n, field), _rray(rng, n, field)
            dp, dq = align_dist(x, y, p), align_dist(x, y, q)
            assert dq <= dp + 1e-12
            assert dp <= n**expo * dq + 1e-12

    @pytest.mark.parametrize("p,q", PQ)
    def test_lift_family(self, rng, field, p, q):
        expo = (1.0 / p) - (0.0 if q == math.inf else 1.0 / q)
        for _ in range(100):
            x, y = _rray(rng, 4, field), _rray(rng, 4, field)
            dp, dq = lift_dist(x, y, p), lift_dist(x, y, q)
            assert dq <= dp + 1e-12
            assert dp <= 2**expo * dq + 1e-12


class TestCrossEmbedding:
    @pytest.mark.parametrize("t", [1e-3, 1e3])
    def test_ratio_equals_scale(self, t):
        x = ray(vec([t, 0.0, 0.0]))
        zero = ray(vec([0.0, 0.0, 0.0]))
        ratio = lift_dist(x, zero, 2) / align_dist(x, zero, 2)
        assert ratio == pytest.approx(t, rel=1e-9)

    def test_squared_distance_inequality(self, rng, field):
        for _ in range(500):
            x, y = _rray(rng, 3, field), _rray(rng, 3, field)
            d2 = align_dist(x, y, 2)
            ell2 = lift_dist(x, y, 2)
            assert d2**4 <= 2 * ell2**2 + 1e-9 * max(1.0, ell2**2)


class TestLiftUnlift:
    def test_lift_e1(self):
        t = lift(ray(vec([1.0, 0.0])))
        assert np.array_equal(t.carrier.entries, np.diag([1.0, 0.0]))

    def test_lift_zero(self):
        t = lift(ray(vec([0.0, 0.0])))
        assert np.array_equal(t.carrier.entries, np.zeros((2, 2)))

    def test_unlift_diag(self):
        t = lift(ray(vec([2.0, 0.0])))
        assert np.allclose(unlift(t).rep.entries, [2.0, 0.0], atol=1e-12)

    def test_unlift_zero(self):
        t = lift(ray(vec([0.0, 0.0])))
        assert np.array_equal(unlift(t).rep.entries, [0.0, 0.0])

    def test_isometry(self, rng, field):
        for p in (1, 2, math.inf):
            for _ in range(25):
                x, y = _rray(rng, 5, field), _rray(rng, 5, field)
                lhs = schatten_norm(lift(x).carrier - lift(y).carrier, p)
                assert abs(lhs - lift_dist(x, y, p)) <= 1e-10 * max(1.0, lhs)

    def test_round_trip(self, rng, eig_calls, field):
        """``unlift(lift(x))`` is ``ray(x)`` bit for bit, read from the
        generator without an eigensolve."""
        for _ in range(250):
            x = _rray(rng, int(rng.integers(2, 6)), field)
            assert np.array_equal(unlift(lift(x)).rep.entries, ray(x.rep).rep.entries)
        assert not eig_calls
