"""Instance families: determinism, validity, and certified distances."""

from __future__ import annotations

import hashlib
import json

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


# sha256 of repr(g.adj) (rows in insertion order) and of the sorted-key JSON
# of the metadata, for a grid that covers every family in sparse and dense
# form, two-member rings (balanced-two-side n = 4), repeated rings that must
# skip pairs already present (all-negative-regular d = 4, 5), group counts
# that do not divide n, and the planted matching.
GOLDEN = [
    (GenSpec(CLUSTERABLE_COMMUNITIES, 40, d=6, k=3, seed=0),
     "e940abfe848ef6e224f34cc59913cd4ee7bedc61e5b7a7643add9317ba848a61",
     "ff85a8753010590f10f359656ae2625d47f3535f43a9dde60ad18b6be317f9cf"),
    (GenSpec(CLUSTERABLE_COMMUNITIES, 40, d=6, k=3, seed=7),
     "37ee8b51230bc7fd5fc625855a2535f56888047f73e64912fea03d71d75a87f8",
     "6c71e87a3daf05575356974f099e1de163c7ec5a5d6baf992c7a834868bd057f"),
    (GenSpec(CLUSTERABLE_COMMUNITIES, 30, d=4, k=3, seed=0),
     "53f48520bf05115b933d650542f392d0edbc0132b5ab663681867ea4bafcc81e",
     "34146e50fb0115e799f898aaedec1851755008ab8758ee6b8bcdd16bfab04089"),
    (GenSpec(CLUSTERABLE_COMMUNITIES, 30, d=4, k=3, seed=7),
     "0b97696a7f87f1e734ea28be6aa23c8f586182c0407325ca36fa7fe34371648e",
     "29a557074e7fcf8cb6a4e9c2d094baf7574bf55b1c7fbe66de9d07893cce7677"),
    (GenSpec(CLUSTERABLE_COMMUNITIES, 61, d=8, k=4, seed=0),
     "d08d3fd38ef92c457e404e4dba3434ceaf00351e4f47c5c2e0485a53b5d06086",
     "724f97f9e07104d3f2a4b1384bda9a96c4f94eb0e24c996a8b4a712f60e12a37"),
    (GenSpec(CLUSTERABLE_COMMUNITIES, 61, d=8, k=4, seed=7),
     "cb4e2696b29b23803fe991e72c6045f785d5692d9d172faa65907f448182bd87",
     "d1d9a723ec57f85b100e702fd3189e5c09a47de6d0c427b292f48dacd30a7692"),
    (GenSpec(CLUSTERABLE_COMMUNITIES, 24, k=4, seed=0),
     "044fa1191e06abba64fb791f3659c1def7abefab0211e7ed8fbf2ccf0be31731",
     "0c9b6a789ebd7ac53c55577dbb002987be7322f31151620481458c16c3530a3f"),
    (GenSpec(CLUSTERABLE_COMMUNITIES, 24, k=4, seed=7),
     "044fa1191e06abba64fb791f3659c1def7abefab0211e7ed8fbf2ccf0be31731",
     "75217efa9cd57ee6ae6dbf02934d0ed4addd07769c5c4946283ae64af45c606b"),
    (GenSpec(CLUSTERABLE_COMMUNITIES, 25, k=3, seed=0),
     "3d1fc3485cba86967dc46f2019eed65d217c4e315d84dcd0c8800912fee760d2",
     "7449e493c41264f0c4b49d75ebd86b0ad7cceed291a7e3611219ff76614fd43f"),
    (GenSpec(CLUSTERABLE_COMMUNITIES, 25, k=3, seed=7),
     "3d1fc3485cba86967dc46f2019eed65d217c4e315d84dcd0c8800912fee760d2",
     "c19feb41b47871bceee7cdf6ae4324d8ddb6342adad22a93258ab96e18c37772"),
    (GenSpec(BALANCED_TWO_SIDE, 4, d=3, seed=0),
     "a80b8266b0e1cb7f3cce7e807b88ccd91c8edd345911c1adf608b3aaf1038562",
     "d7b171df57580b12882c1ff5d20f9cbd69841d7751824e00f01ff2baab5c4e07"),
    (GenSpec(BALANCED_TWO_SIDE, 4, d=3, seed=7),
     "50b0f7c33f9a0c955683c6de0c51b75fe79ded65a20500b1d7b7446c821ec592",
     "db14646a12bb3f676afdadf753b26890a465d6de344efa709625a99ac6baa4e0"),
    (GenSpec(BALANCED_TWO_SIDE, 30, d=5, seed=0),
     "03dc866ecfdcbac78da7b08b98aa14412be4a48304d0835fba6c4bbf3eb27e13",
     "9979b939e575d83f1bfda14524d5a7a6d2b2a7988e467a2455e3b6c19b14e201"),
    (GenSpec(BALANCED_TWO_SIDE, 30, d=5, seed=7),
     "6aa5b1de4b5b5fabb403f09ee47d1b2059962c7692cb51576a38a780331c3f46",
     "42d992711521db90c542bc8e5358923d7f74cfaee0e7f4d281c6188e8f01340c"),
    (GenSpec(BALANCED_TWO_SIDE, 40, d=3, seed=0),
     "516febefdabe3ad9abe7e0f92ce9e863df9cba4b3138455d410a65fc7c05d505",
     "fc594420a6ddf05bc100be436df2cb91e172014221e2f86da29ac6e78d85dd62"),
    (GenSpec(BALANCED_TWO_SIDE, 40, d=3, seed=7),
     "a287456e4161e7875a6f75a8c360d560c6370673b0694a18e0048a3262a5e974",
     "4e8ca0175b15b6480ae15f288683998b54ae898f02a73cdd6b883cbad2051220"),
    (GenSpec(BALANCED_TWO_SIDE, 4, seed=0),
     "3ac7e03bec8f25325eed4e8085794098522359da504351c03bc46711a62b6bc2",
     "96c92a8534cb284af821c1c42c0bd8b8705f3726eb711344b9fbeeddee0682cc"),
    (GenSpec(BALANCED_TWO_SIDE, 4, seed=7),
     "3ac7e03bec8f25325eed4e8085794098522359da504351c03bc46711a62b6bc2",
     "fe5699e9a72227454d56ed295944702e850412e2232b8a17a9863aed808d911a"),
    (GenSpec(BALANCED_TWO_SIDE, 16, seed=0),
     "95112f62345f0f6dd5b901f4c6cdb446d8f4b1b590b6878deed7130f2e42583e",
     "67b69d62c09a33bbbe109d0e4bb4f7b50138ade16306a8e3fb01501fe52af2dc"),
    (GenSpec(BALANCED_TWO_SIDE, 16, seed=7),
     "95112f62345f0f6dd5b901f4c6cdb446d8f4b1b590b6878deed7130f2e42583e",
     "3b26e1add5de2ffe2d24706e6a2fde11e669dda014e20f4a8021d12c1b0f5e26"),
    (GenSpec(ALL_NEGATIVE_REGULAR, 2, d=1, seed=0),
     "74ec79f54b243fe0ad07fea817e7e0022d26321d99f12f8fc0cc486de6520c39",
     "5733d8982722836a3340390e2b3971cad9b2edba3a35f5d6fbd3e759d230f610"),
    (GenSpec(ALL_NEGATIVE_REGULAR, 2, d=1, seed=7),
     "74ec79f54b243fe0ad07fea817e7e0022d26321d99f12f8fc0cc486de6520c39",
     "7558b5de06ae6dc51233b5132cef21eada7a6b53f8ee02cb609e4464a1c6fac2"),
    (GenSpec(ALL_NEGATIVE_REGULAR, 40, d=3, seed=0),
     "70d660eeb34824577fc0a9c04bde8e4787b68cb2c65c2ac9cf71136745fab246",
     "861f4c645d85fb3e0f4d80c395379ca013c42a85add410b5706797d7bf44d954"),
    (GenSpec(ALL_NEGATIVE_REGULAR, 40, d=3, seed=7),
     "7f703bd8cadf11e2829d8432c9b7d6588f0e7c48999c5dd9d02229f71f8416da",
     "fdee725d9b23be6b22c873c990adba96345b216d2cad3bbb3a74b5e6957f6402"),
    (GenSpec(ALL_NEGATIVE_REGULAR, 12, d=4, seed=0),
     "a3887fc21f7e258965103363276fe96a6c249d7cf996d1bad01c3d99e19209fb",
     "0ae96ea3f8d1bd5adbfdd620c8b65dbf1e721be0a2bd313e615625f68949d487"),
    (GenSpec(ALL_NEGATIVE_REGULAR, 12, d=4, seed=7),
     "2919012c4b8cc313b051bcb8874bf3a812fa522a3482935377e92b5a450c7a75",
     "0b7fbc8f8f620e51619f21e7ddefedd206924089015421d46e765fb448f73ade"),
    (GenSpec(ALL_NEGATIVE_REGULAR, 12, d=5, seed=0),
     "e196e501f5df46402df546b3d9f3581ac11e60cc5ab7464fe8431e7a9d28ec26",
     "f7b142761c438749ee9f647fdd4239ca4ff054e520543c9eaa49e5c44ce46254"),
    (GenSpec(ALL_NEGATIVE_REGULAR, 12, d=5, seed=7),
     "d4ea92805d870317fdf3be32d33ed4dd1b9708e17e03b63fb43ad759ccff78a0",
     "78a9ea46bfbc63f64297a3fddbf930adc70772a155145a335cbcc116f3dd9330"),
    (GenSpec(ALL_NEGATIVE_REGULAR, 10, d=9, seed=0),
     "52217e13c3f7600b70d26f1b5b97a232fbb85addc7c87e08ac316fcbff1526c0",
     "88bc2021849eb26bb42610693cfa646879c07fb4aa14b741321fbd8bfeb94522"),
    (GenSpec(ALL_NEGATIVE_REGULAR, 10, d=9, seed=7),
     "bfb339a0c0be9598b9937b878f948bd6e839058fd7b64108ab9be99cd78b56d6",
     "2b686bfeb3fb40c8333c6dfbb68a399348e22e902e5572c74a17d517b5b93273"),
    (GenSpec(DISJOINT_BAD_TRIANGLES, 31, seed=0),
     "bbf6291d4fb1aeb59248dc1821e1d3b69fb566c3f845ba870101c19781ce1212",
     "b0a90d2b0a35e144573bac6f40b2f958e6ace6fac274c91242a8f319112a515f"),
    (GenSpec(DISJOINT_BAD_TRIANGLES, 31, seed=7),
     "bbf6291d4fb1aeb59248dc1821e1d3b69fb566c3f845ba870101c19781ce1212",
     "d4245f963f2ca5507246c04d6eb9fa134542b8536194a5b2524116cd0633378d"),
    (GenSpec(DISJOINT_BAD_TRIANGLES, 12, d=6, seed=0),
     "53410565738b36228b2a463e7fbb945a60ff2a854a36db0f29d336a9ee53d9c4",
     "7cd7203832027c87d1639db7ae60e89436a7de935545198692fd4b7723774ce2"),
    (GenSpec(DISJOINT_BAD_TRIANGLES, 12, d=6, seed=7),
     "53410565738b36228b2a463e7fbb945a60ff2a854a36db0f29d336a9ee53d9c4",
     "c95e57276786199db7a12f4403f6d4c97c1a7ba9431caddd5585bf304a3c2735"),
    (GenSpec(PLANTED_NEGATIVE_MATCHING, 48, d=8, k=2, planted_fraction=0.03, seed=0),
     "14c2608133d2cef9f973bd444fdc99a298fbdd2215d3ec659d11ed4c5ea8afe4",
     "3b7cf6188e40b8518b1edba2028be31103d387bf1b41ed2a0aee798c2b3fc900"),
    (GenSpec(PLANTED_NEGATIVE_MATCHING, 48, d=8, k=2, planted_fraction=0.03, seed=7),
     "2db3997b5f20eee8ed26940beee0cad0bb39377ac053b7500550725d863d194a",
     "83516cd053b7563b61c5ca7240940a55b19957e776c7d84cf23407c5bf16804e"),
    (GenSpec(PLANTED_NEGATIVE_MATCHING, 50, d=6, k=3, planted_fraction=0.05, seed=0),
     "ab488209d6f366c60fb31b7247cd4f594047630950e033b495869da765ba2c8b",
     "a519bc44df5ac4a236c4ecdf96d5f945d0af43cda7541933303cc0083424286a"),
    (GenSpec(PLANTED_NEGATIVE_MATCHING, 50, d=6, k=3, planted_fraction=0.05, seed=7),
     "e486faea4bcde3872d6970773caff05383bdd20f0a8eb74266fa58eed1895b41",
     "61f477b30d82eb846a6ca6c95dbb5d3bbe4f9f8b794dd65eeafa1d7d2ec8e485"),
    (GenSpec(PLANTED_NEGATIVE_MATCHING, 12, d=4, k=2, planted_fraction=0.1, seed=0),
     "1e71573456418bc5a70dababa77a00d8b287076db1df711d38d7a2b4c3614e8c",
     "ae382ffc8027c9e95dd7d4f8fa0b4e351a2c9a73eddda24604b00db8d7df695d"),
    (GenSpec(PLANTED_NEGATIVE_MATCHING, 12, d=4, k=2, planted_fraction=0.1, seed=7),
     "01c2a1a09ebf04103da09bafef01cd0400b1467603f6e5f370d35263c2499243",
     "c8c0b8f47e8c97347a01e8e87fa280608d448b93bd3a8d3ce70f46d3fd154864"),
    (GenSpec(PLANTED_NEGATIVE_MATCHING, 40, d=20, k=2, planted_fraction=0.02, seed=0),
     "30a65615062fc0723fc0b5fc3d97d609f23ecb1e8e4808414fb39a14aae48143",
     "987c1989c9a39eac54a7a1a3141b3f955c33cc90ed252533914bd53fdea82aa5"),
    (GenSpec(PLANTED_NEGATIVE_MATCHING, 40, d=20, k=2, planted_fraction=0.02, seed=7),
     "e4a9a989945231c7984fc9c741e8f59387effaec5935cf3ce78da3501dc2689e",
     "770205035b9ba8491b4e9a4991f6e9d2c34725b676f6a35b8bedbe1a6f6eb465"),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenInstances:
    @pytest.mark.parametrize("spec,adj_sha,meta_sha", GOLDEN,
                             ids=[f"{s.family}-{s.n}-d{s.d}-k{s.k}-s{s.seed}" for s, _, _ in GOLDEN])
    def test_generated_graph_and_metadata_are_pinned(self, spec, adj_sha, meta_sha):
        g, meta = generate(spec)
        assert _sha(repr(g.adj)) == adj_sha
        assert _sha(json.dumps(meta, sort_keys=True)) == meta_sha

    @pytest.mark.parametrize("spec", [s for s, _, _ in GOLDEN if s.seed == 0],
                             ids=lambda s: f"{s.family}-{s.n}-d{s.d}")
    def test_rows_share_one_int_object_per_node(self, spec):
        g, _ = generate(spec)
        nbrs = [v for row in g.adj for v, _ in row]
        assert all(type(v) is int for row in g.adj for x in row for v in x)
        assert len({id(v) for v in nbrs}) == len(set(nbrs))


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
            (dict(family=ALL_NEGATIVE_REGULAR, n=10, d=3, seed=-1), "seed must be >= 0"),
        ],
    )
    def test_bad_parameters_raise(self, spec, msg):
        with pytest.raises(ValueError, match=msg):
            generate(GenSpec(**spec))
