"""Instance families: determinism, validity, and certified distances."""

from __future__ import annotations

import numpy as np
import pytest

from signedtest import exact
from signedtest.core import Sign, dumps_edge_list, validate
from signedtest.generators import (
    ALL_NEGATIVE_REGULAR,
    BALANCED_TWO_SIDE,
    CLUSTERABLE_COMMUNITIES,
    DISJOINT_BAD_TRIANGLES,
    FAMILIES,
    PLANTED_NEGATIVE_MATCHING,
    DistanceCertificate,
    GenSpec,
    certify,
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
        ],
    )
    def test_bad_parameters_raise(self, spec, msg):
        with pytest.raises(ValueError, match=msg):
            generate(GenSpec(**spec))


class TestCertify:
    def test_exact_balance_certificate(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 9))
        cert = certify(g, "balance", model="dense")
        assert isinstance(cert, DistanceCertificate)
        assert cert.edits == 3
        assert cert.epsilon == pytest.approx(3 / 81)
        assert cert.kind == "exact"

    def test_bounded_normalization(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 9, d=2))
        cert = certify(g, "clusterability", model="bounded")
        assert cert.edits == 3
        assert cert.epsilon == pytest.approx(3 / (2 * 9))

    def test_too_large_returns_none(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 99))
        assert certify(g, "balance") is None
        assert certify(g, "clusterability") is None

    def test_only_size_caps_return_none(self, monkeypatch):
        big, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 18))
        assert certify(big, "triangle-free", pattern="++-") is None
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 9))

        def failing_solver(graph):
            # says "caps at" but is no size cap, so certify must not swallow it
            raise ValueError("solver caps at nothing, this is some other failure")

        monkeypatch.setattr(exact, "frustration_index", failing_solver)
        with pytest.raises(ValueError, match="other failure"):
            certify(g, "balance")

    def test_triangle_distance_certificate(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 9))
        pat = (Sign.PLUS, Sign.PLUS, Sign.MINUS)
        cert = certify(g, "triangle-free", pattern=pat)
        assert cert.edits == 3
        none_pat = (Sign.MINUS, Sign.MINUS, Sign.MINUS)
        assert certify(g, "triangle-free", pattern=none_pat).edits == 0

    def test_certify_matches_brute_force_randomized(self):
        rng = np.random.default_rng(3)
        from conftest import random_signed_graph

        for _ in range(25):
            g = random_signed_graph(rng, int(rng.integers(4, 11)), p_edge=0.5)
            cert = certify(g, "balance")
            assert cert.edits == exact.frustration_index(g)

    def test_bad_arguments(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 9))
        with pytest.raises(ValueError, match="model"):
            certify(g, "balance", model="sparse")
        unbounded, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 8, k=2))
        with pytest.raises(ValueError, match="degree bound"):
            certify(unbounded, "balance", model="bounded")
        with pytest.raises(ValueError, match="unknown property"):
            certify(g, "frustration")
        with pytest.raises(ValueError, match="pattern"):
            certify(g, "triangle-free")

    def test_every_family_name_exported(self):
        assert len(FAMILIES) == 5
