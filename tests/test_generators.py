"""Instance families: determinism, validity, and certified distances."""

from __future__ import annotations

import pytest

from signedtest import exact
from signedtest.core import dumps_edge_list, validate
from signedtest.generators import (
    ALL_NEGATIVE_REGULAR,
    BALANCED_TWO_SIDE,
    CLUSTERABLE_COMMUNITIES,
    DISJOINT_BAD_TRIANGLES,
    FAMILIES,
    PLANTED_NEGATIVE_MATCHING,
    GenSpec,
    generate,
)


def _sample_specs(seed):
    return [
        GenSpec(CLUSTERABLE_COMMUNITIES, 40, seed=seed, d=6, k=3),
        GenSpec(CLUSTERABLE_COMMUNITIES, 24, seed=seed, k=4),
        GenSpec(BALANCED_TWO_SIDE, 30, seed=seed, d=5),
        GenSpec(BALANCED_TWO_SIDE, 16, seed=seed),
        GenSpec(ALL_NEGATIVE_REGULAR, 40, seed=seed, d=3),
        GenSpec(DISJOINT_BAD_TRIANGLES, 31, seed=seed),
        GenSpec(PLANTED_NEGATIVE_MATCHING, 48, seed=seed, d=8, k=2, planted_fraction=0.03),
    ]


class TestDeterminismAndValidity:
    def test_byte_identical_regeneration(self):
        for spec in _sample_specs(seed=123):
            g1, _ = generate(spec)
            g2, _ = generate(spec)
            assert dumps_edge_list(g1) == dumps_edge_list(g2), spec.family

    def test_different_seeds_differ(self):
        # fixed-layout families (bad triangles, the complete dense forms) are
        # seed-independent by design; only randomized constructions vary
        for spec in _sample_specs(seed=1):
            if spec.family == DISJOINT_BAD_TRIANGLES or spec.d is None:
                continue
            g1, _ = generate(spec)
            g2, _ = generate(GenSpec(**{**spec.__dict__, "seed": 2}))
            assert dumps_edge_list(g1) != dumps_edge_list(g2), spec.family

    @pytest.mark.parametrize("seed", range(20))
    def test_instances_validate_and_respect_bounds(self, seed):
        for spec in _sample_specs(seed):
            g, meta = generate(spec)
            assert validate(g) is None
            if g.degree_bound is not None:
                assert meta["degree"]["max"] <= g.degree_bound

    def test_every_family_name_exported(self):
        assert len(FAMILIES) == 5

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            GenSpec("no-such-family", 10)


class TestFamilyProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_communities_are_clusterable(self, seed):
        for spec in (
            GenSpec(CLUSTERABLE_COMMUNITIES, 36, seed=seed, d=6, k=3),
            GenSpec(CLUSTERABLE_COMMUNITIES, 20, seed=seed, k=2),
        ):
            g, meta = generate(spec)
            assert exact.is_clusterable(g).clusterable
            assert meta["properties"]["clusterable"] is True

    @pytest.mark.parametrize("seed", range(10))
    def test_two_side_is_balanced(self, seed):
        for spec in (
            GenSpec(BALANCED_TWO_SIDE, 26, seed=seed, d=5),
            GenSpec(BALANCED_TWO_SIDE, 12, seed=seed),
        ):
            g, _ = generate(spec)
            assert exact.is_balanced(g).balanced

    @pytest.mark.parametrize("seed", range(10))
    def test_all_negative_has_no_positive_edges(self, seed):
        g, meta = generate(GenSpec(ALL_NEGATIVE_REGULAR, 30, seed=seed, d=3))
        assert g.num_positive_edges == 0
        assert exact.is_clusterable(g).clusterable
        assert meta["distance"]["property"] == "balance"
        assert meta["degree"]["min"] >= 1

    @pytest.mark.parametrize("seed", range(20))
    def test_all_negative_small_meets_claimed_margin(self, seed):
        # exact cross-check of the construction-backed bound at a brute-forceable size
        g, meta = generate(GenSpec(ALL_NEGATIVE_REGULAR, 16, seed=seed, d=3))
        assert exact.frustration_index(g) >= meta["distance"]["edits_lower"]

    def test_bad_triangles_layout_and_distance(self):
        g, meta = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 11))
        assert meta["triangles"] == 3
        assert g.num_edges == 9
        assert g.degree(9) == 0 and g.degree(10) == 0
        assert meta["distance"]["edits_lower"] == 3
        assert not exact.is_clusterable(g).clusterable
        assert not exact.is_balanced(g).balanced

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_bad_triangles_distance_matches_brute_force(self, n):
        g, meta = generate(GenSpec(DISJOINT_BAD_TRIANGLES, n))
        t = meta["triangles"]
        assert exact.weak_frustration_index(g) == t
        assert exact.frustration_index(g) == t

    @pytest.mark.parametrize("seed", range(20))
    def test_planted_matching_breaks_clusterability(self, seed):
        spec = GenSpec(PLANTED_NEGATIVE_MATCHING, 48, seed=seed, d=8, k=2, planted_fraction=0.03)
        g, meta = generate(spec)
        assert not exact.is_clusterable(g).clusterable
        assert meta["planted"] == int(0.03 * 8 * 48)
        assert 1 <= meta["distance"]["edits_lower"] <= meta["distance"]["edits_upper"]

    @pytest.mark.parametrize("seed", range(20))
    def test_planted_matching_upper_bound_is_sound_small(self, seed):
        # n=12 fits the exact weak-frustration solver
        spec = GenSpec(PLANTED_NEGATIVE_MATCHING, 12, seed=seed, d=4, k=2, planted_fraction=0.1)
        g, meta = generate(spec)
        w = exact.weak_frustration_index(g)
        assert 1 <= w <= meta["distance"]["edits_upper"]


class TestParameterValidation:
    @pytest.mark.parametrize(
        "spec,msg",
        [
            (dict(family=DISJOINT_BAD_TRIANGLES, n=2), "n >= 3"),
            (dict(family=DISJOINT_BAD_TRIANGLES, n=9, d=1), "degree bound >= 2"),
            (dict(family=ALL_NEGATIVE_REGULAR, n=9, d=3), "even"),
            (dict(family=ALL_NEGATIVE_REGULAR, n=6, d=6), "1 <= d < n"),
            (dict(family=BALANCED_TWO_SIDE, n=9), "even n"),
            (dict(family=BALANCED_TWO_SIDE, n=10, d=2), "d >= 3"),
            (dict(family=CLUSTERABLE_COMMUNITIES, n=10, d=3, k=2), "d >= 4"),
            (dict(family=CLUSTERABLE_COMMUNITIES, n=10, d=5, k=5), "size >= 3"),
            (dict(family=PLANTED_NEGATIVE_MATCHING, n=20, d=3), "d >= 4"),
            (dict(family=PLANTED_NEGATIVE_MATCHING, n=20, d=4, planted_fraction=0.9), "planted_fraction"),
            (dict(family=PLANTED_NEGATIVE_MATCHING, n=20, d=4, planted_fraction=1e-5), "too small"),
            (dict(family=PLANTED_NEGATIVE_MATCHING, n=100, k=0), "1 <= k <= n"),
            (dict(family=PLANTED_NEGATIVE_MATCHING, n=100, k=-1), "1 <= k <= n"),
        ],
    )
    def test_bad_parameters_raise(self, spec, msg):
        with pytest.raises(ValueError, match=msg):
            generate(GenSpec(**spec))
