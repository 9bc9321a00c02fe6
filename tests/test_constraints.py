import itertools
import json

import numpy as np
import pytest

from ihskit.constraints import (
    Box,
    L1Ball,
    NuclearBall,
    Simplex,
    Unconstrained,
    constraint_from_json,
    contains,
    project,
)
from ihskit.errors import DimensionError, NonFiniteError
from ihskit.subsolver import project_iterate

rng = np.random.default_rng(321)


def l1_projection_oracle(x, radius):
    """Exhaustive KKT search over active sets (small d only)."""
    if np.abs(x).sum() <= radius:
        return x.copy()
    d = len(x)
    best, best_val = None, np.inf
    for k in range(1, d + 1):
        for support in itertools.combinations(range(d), k):
            theta = (np.abs(x)[list(support)].sum() - radius) / k
            if theta < 0:
                continue
            z = np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)
            z[[j for j in range(d) if j not in support]] = 0.0
            if np.abs(z).sum() > radius + 1e-12:
                continue
            val = np.linalg.norm(z - x)
            if val < best_val:
                best, best_val = z, val
    return best


def simplex_projection_oracle(x):
    d = len(x)
    best, best_val = None, np.inf
    for k in range(1, d + 1):
        for support in itertools.combinations(range(d), k):
            z = np.zeros(d)
            shift = (1.0 - x[list(support)].sum()) / k
            z[list(support)] = x[list(support)] + shift
            if np.any(z[list(support)] < -1e-15):
                continue
            val = np.linalg.norm(z - x)
            if val < best_val:
                best, best_val = np.maximum(z, 0.0), val
    return best


class TestL1Ball:
    def test_interior_point_fixed(self):
        assert project(L1Ball(2.0), [1.0, 0.5]) == pytest.approx([1.0, 0.5])

    def test_spec_example(self):
        assert project(L1Ball(1.0), [3.0, 1.0]) == pytest.approx([1.0, 0.0])

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_against_kkt_oracle(self, d):
        for _ in range(50):
            x = 3.0 * rng.standard_normal(d)
            radius = float(rng.uniform(0.2, 2.0))
            got = project(L1Ball(radius), x)
            want = l1_projection_oracle(x, radius)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_contains(self):
        assert contains(L1Ball(1.0), [0.5, 0.4], tol=0.0)
        assert not contains(L1Ball(1.0), [0.8, 0.4], tol=0.0)


class TestSimplex:
    def test_contains(self):
        assert contains(Simplex(), [0.5, 0.5], tol=0.0)
        assert not contains(Simplex(), [0.5, 0.6], tol=0.0)
        assert not contains(Simplex(), [1.5, -0.5], tol=0.0)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_against_kkt_oracle(self, d):
        for _ in range(50):
            x = 2.0 * rng.standard_normal(d)
            got = project(Simplex(), x)
            want = simplex_projection_oracle(x)
            assert np.max(np.abs(got - want)) <= 1e-12


class TestBox:
    def test_clamp(self):
        got = project(Box(-1.0, 1.0), [2.0, -3.0, 0.5])
        assert got == pytest.approx([1.0, -1.0, 0.5])

    def test_per_coordinate_bounds(self):
        box = Box([0.0, -2.0], [0.5, 2.0])
        assert project(box, [1.0, -5.0]) == pytest.approx([0.5, -2.0])
        with pytest.raises(DimensionError):
            project(box, [1.0, 2.0, 3.0])

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Box(1.0, -1.0)

    def test_nan_bound_rejected(self):
        # lo > hi is false for a NaN bound, which would project to NaN
        for lo, hi in ((np.nan, 1.0), (-1.0, np.nan), ([0.0, np.nan], [1.0, 1.0])):
            with pytest.raises(ValueError, match="lo <= hi"):
                Box(lo, hi)
        with pytest.raises(ValueError, match="lo <= hi"):
            constraint_from_json('{"type": "box", "lo": NaN}')

    def test_matrix_bounds_rejected(self):
        # a bound of shape (1, 1) or (1, d) would project to shape (1, d)
        for lo, hi in (([[0.0]], [[1.0]]), ([[0.0, 1.0]], [[1.0, 2.0]])):
            with pytest.raises(DimensionError, match="scalars or vectors"):
                Box(lo, hi)

    def test_half_bounded_box(self):
        box = Box(-np.inf, 0.0)
        assert np.array_equal(project(box, [-5.0, 2.0]), [-5.0, 0.0])
        assert contains(box, [-1e300, 0.0]) and not contains(box, [1.0])

    def test_scalar_bounds_match_full_bounds_bit_for_bit(self):
        x = np.random.default_rng(7).standard_normal(257) * 3
        lo, hi = -1.0 / 3, 0.7
        got = project(Box(lo, hi), x)
        assert got.shape == x.shape
        assert np.array_equal(got, np.clip(x, np.full(257, lo), np.full(257, hi)))
        assert contains(Box(lo, hi), got) and not contains(Box(lo, hi), x)


class TestNuclearBall:
    def test_contains_diagonal(self):
        x = np.diag([0.6, 0.6]).ravel(order="F")
        assert not contains(NuclearBall(1.0, 2, 2), x, tol=0.0)
        assert contains(NuclearBall(1.2, 2, 2), x, tol=1e-12)

    def test_diagonal_reduces_to_l1(self):
        diag = np.array([2.0, 1.0, 0.3])
        x = np.diag(diag).ravel(order="F")
        got = project(NuclearBall(1.5, 3, 3), x)
        want = np.diag(project(L1Ball(1.5), diag)).ravel(order="F")
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_projection_shrinks_nuclear_norm(self):
        x = rng.standard_normal(12)
        z = project(NuclearBall(0.8, 3, 4), x)
        assert contains(NuclearBall(0.8, 3, 4), z, tol=1e-9)

    def test_dimension_checked(self):
        with pytest.raises(DimensionError):
            project(NuclearBall(1.0, 3, 4), np.zeros(11))

    @staticmethod
    def _cases():
        gen = np.random.default_rng(4404)
        square, wide, tall = (gen.standard_normal(shape) for shape in ((5, 5), (3, 6), (6, 3)))
        low_rank = gen.standard_normal((6, 2)) @ gen.standard_normal((2, 4))
        nuc = lambda m: np.linalg.svd(m, compute_uv=False).sum()
        return [(square, 1.0), (wide, 0.7), (tall, 1.3), (square, 2.0 * nuc(square)),
                (wide, nuc(wide)), (low_rank, 0.5), (np.zeros((4, 3)), 1.0)]

    def test_projection_keeps_its_bits(self):
        # the l1-ball projection of the singular values that np.linalg.svd
        # gives, as the projection computed before it dropped abs and sort
        for mat, radius in self._cases():
            cset = NuclearBall(radius, *mat.shape)
            u, s, vt = np.linalg.svd(mat, full_matrices=False)
            want = ((u * project(L1Ball(radius), s)) @ vt).ravel(order="F")
            assert np.array_equal(project(cset, mat.ravel(order="F")), want)
            assert np.array_equal(project_iterate(cset, mat), want.reshape(mat.shape, order="F"))
            assert np.array_equal(project_iterate(cset, mat.ravel(order="F")), want)

    @pytest.mark.parametrize("cset", [NuclearBall(1.0, 3, 4), L1Ball(1.0)],
                             ids=lambda c: type(c).__name__)
    def test_non_finite_input_rejected(self, cset):
        x = np.ones(12)
        x[5] = np.nan
        with pytest.raises(NonFiniteError):
            project(cset, x)


ALL_SETS = [
    Unconstrained(),
    L1Ball(1.3),
    Simplex(),
    Box(-1.0, 1.0),
    NuclearBall(1.0, 3, 4),
]


def _dim_of(cset):
    return 12 if isinstance(cset, NuclearBall) else 6


@pytest.mark.parametrize("cset", ALL_SETS, ids=lambda c: type(c).__name__)
def test_projection_properties(cset):
    d = _dim_of(cset)
    for _ in range(200):
        x = 2.0 * rng.standard_normal(d)
        y = 2.0 * rng.standard_normal(d)
        px, py = project(cset, x), project(cset, y)
        # idempotence
        assert np.max(np.abs(project(cset, px) - px)) <= 1e-12
        # nonexpansiveness
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
        # membership
        assert contains(cset, px, tol=1e-9)
        # optimality against a random feasible point
        z = project(cset, 2.0 * rng.standard_normal(d))
        assert np.linalg.norm(px - x) <= np.linalg.norm(z - x) + 1e-10


def test_json_round_trip():
    parsed = constraint_from_json('{"type": "nuclear", "radius": 2.0, "d1": 3, "d2": 5}')
    assert parsed == NuclearBall(2.0, 3, 5)
    with pytest.raises(ValueError):
        constraint_from_json('{"type": "conic"}')
    with pytest.raises(ValueError):
        constraint_from_json("not json")


@pytest.mark.parametrize("text, want", [
    ('{"type": "l1", "radius": 2}', L1Ball(2.0)),
    ('{"type": "l1", "radius": "0.5"}', L1Ball(0.5)),
    ('{"type": "nuclear", "radius": 1, "d1": 2.0, "d2": true}', NuclearBall(1.0, 2, 1)),
    ('{"type": "box"}', Box(-1.0, 1.0)),
    ('{"type": "box", "lo": [0, 1], "hi": [2, 3]}', Box([0.0, 1.0], [2.0, 3.0])),
    ('{"type": "box", "lo": "0", "hi": 4}', Box(0.0, 4.0)),
    ('{"type": "simplex", "radius": null}', Simplex()),
])
def test_valid_descriptors_parse(text, want):
    assert constraint_from_json(text) == want


@pytest.mark.parametrize("kind", ["L1", "l1ball", "l1_ball", "nuclearball", "nuclear_ball",
                                  "Simplex"])
def test_only_documented_type_spellings_parse(kind):
    text = json.dumps({"type": kind, "radius": 1.0, "d1": 2, "d2": 2})
    with pytest.raises(ValueError, match=f"unknown constraint type '{kind}'"):
        constraint_from_json(text)


@pytest.mark.parametrize("text, message", [
    ('{"type": "l1"}', "l1 constraint descriptor needs 'radius'"),
    ('{"type": "l1", "radius": null}', "l1 constraint descriptor needs 'radius'"),
    ('{"type": "l1", "radius": [1]}', "'radius' must be numeric, got \\[1\\]"),
    ('{"type": "l1", "radius": "big"}', "'radius' must be numeric, got 'big'"),
    ('{"type": "nuclear", "radius": 1, "d1": 3}', "nuclear constraint descriptor needs 'd2'"),
    ('{"type": "nuclear", "radius": 1, "d1": 1e999, "d2": 2}', "'d1' must be numeric, got inf"),
    ('{"type": "nuclear", "radius": 1, "d1": {}, "d2": 2}', "'d1' must be numeric"),
    ('{"type": "box", "lo": null}', "box constraint descriptor needs 'lo'"),
    ('{"type": "box", "hi": {"a": 1}}', "'hi' must be numeric"),
    ('{"type": "box", "lo": [0, [1]]}', "'lo' must be numeric"),
])
def test_malformed_descriptor_names_field(text, message):
    with pytest.raises(ValueError, match=message):
        constraint_from_json(text)


@pytest.mark.parametrize("key, text", [
    ("d1", '{"type": "nuclear", "radius": 1, "d1": 2.5, "d2": 2}'),
    ("d2", '{"type": "nuclear", "radius": 1, "d1": 2, "d2": 3.0000001}'),
])
def test_fractional_nuclear_dimension_refused(key, text):
    # int() truncated 2.5 to 2 without a word
    value = json.loads(text)[key]
    with pytest.raises(ValueError, match=f"'{key}' must be an integer, got {value}"):
        constraint_from_json(text)


@pytest.mark.parametrize("d1, d2", [(2.5, 2), (2, 2.0), ("2", 2), (None, 2)])
def test_nuclear_ball_requires_integer_dimensions(d1, d2):
    with pytest.raises(ValueError, match="matrix dimensions must be integers"):
        NuclearBall(1.0, d1, d2)


def test_nuclear_ball_takes_numpy_integers():
    cset = NuclearBall(1.0, np.int64(2), np.int32(3))
    assert project(cset, np.ones(6)).shape == (6,)


@pytest.mark.parametrize("make", [
    lambda: L1Ball(0), lambda: NuclearBall(0, 2, 2), lambda: NuclearBall(1, 0, 2),
], ids=["l1_radius_zero", "nuclear_radius_zero", "nuclear_d1_zero"])
def test_degenerate_balls_rejected(make):
    with pytest.raises(ValueError, match="must be positive"):
        make()


def test_vector_box_of_wrong_length_rejected_by_problem():
    from ihskit.ihs import LsProblem

    with pytest.raises(DimensionError, match="constraint set expects dimension 2, A has 3 columns"):
        LsProblem(rng.standard_normal((6, 3)), np.zeros(6), set=Box(np.zeros(2), np.ones(2)))
