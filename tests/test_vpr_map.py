"""Reference-map tests: retrieval exactness, tie-breaking, file round trips."""

import csv
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copr.errors import (
    BadMagic,
    CoprError,
    CountMismatch,
    DimMismatch,
    DuplicateId,
    EmptyMap,
    InvalidConfig,
    NonUnitQuaternion,
    ParseError,
    RefusedNonFinite,
    UnwritableId,
    VersionUnsupported,
    ZeroQuaternion,
)
from copr.geometry import Pose
from copr.vpr_map import (
    POSE_CSV_HEADER,
    Origin,
    ReferenceMap,
    _csv_pose_rows,
    load_descriptor_block,
    load_map,
    nearest_neighbors,
    oracle_retrieve,
    origin_of,
    retrieve,
    retrieve_many,
    save_map,
)


def _pose(x=0.0, y=0.0, z=0.0):
    return Pose(t=[x, y, z], q=[1, 0, 0, 0])


def _map_of(descriptors, translations=None, ids=None):
    descriptors = np.asarray(descriptors, dtype=np.float64)
    n = descriptors.shape[0]
    if translations is None:
        translations = [(float(i), 0.0, 0.0) for i in range(n)]
    return ReferenceMap(
        ids=tuple(ids) if ids else tuple(f"r{i}" for i in range(n)),
        descriptors=descriptors,
        translations=np.asarray(translations, dtype=np.float64).reshape(n, 3),
        quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
    )


_EMPTY_MAP = ReferenceMap((), np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((0, 4)))


class TestRetrieve:
    def test_exact_match_is_rank_one(self):
        m = _map_of([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = retrieve([3.0, 4.0], m, k=1)
        assert out[0].ref_index == 1
        assert out[0].feature_distance == 0.0

    def test_hand_euclidean_distances(self):
        m = _map_of([[0.0, 0.0], [3.0, 4.0]])
        out = retrieve([0.0, 1.0], m, k=2)
        assert out[0].ref_index == 0
        np.testing.assert_allclose(out[0].feature_distance, 1.0, atol=1e-15)
        # ||(3,4) - (0,1)|| = sqrt(9 + 9)
        np.testing.assert_allclose(out[1].feature_distance, math.sqrt(18.0), atol=1e-12)

    def test_k_larger_than_map(self):
        m = _map_of([[0.0], [1.0], [2.0]])
        out = retrieve([0.4], m, k=10)
        assert len(out) == 3
        dists = [o.feature_distance for o in out]
        assert dists == sorted(dists)

    def test_tie_broken_by_index(self):
        m = _map_of([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        out = retrieve([1.0, 0.0], m, k=3)
        assert [o.ref_index for o in out] == [0, 2, 1]

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            retrieve([1.0, 2.0, 3.0], _map_of([[0.0, 0.0]]), k=1)

    def test_empty_map(self):
        empty = _EMPTY_MAP
        with pytest.raises(EmptyMap):
            retrieve([1.0], empty, k=1)

    def test_matches_brute_force_scan(self):
        # Independent oracle: per-entry linalg.norm loop with first-min.
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            d = int(rng.integers(1, 16))
            m = _map_of(rng.standard_normal((n, d)))
            q = rng.standard_normal(d)
            best, best_d = 0, np.linalg.norm(m.descriptors[0] - q)
            for i in range(1, n):
                di = np.linalg.norm(m.descriptors[i] - q)
                if di < best_d:
                    best, best_d = i, di
            assert retrieve(q, m, k=1)[0].ref_index == best

    def test_monotone_distances(self):
        rng = np.random.default_rng(9)
        m = _map_of(rng.standard_normal((50, 8)))
        out = retrieve(rng.standard_normal(8), m, k=50)
        d = [o.feature_distance for o in out]
        assert all(d[i] <= d[i + 1] for i in range(len(d) - 1))

    def test_pose_fills_errors(self):
        m = _map_of([[0.0], [1.0]], translations=[(0, 0, 0), (2, 0, 0)])
        out = retrieve([0.9], m, k=1, query_pose=_pose(1.0))
        assert out[0].ref_index == 1
        np.testing.assert_allclose(out[0].translation_error, 1.0)
        assert out[0].rotation_error == 0.0

    def test_without_pose_errors_are_nan(self):
        m = _map_of([[0.0]])
        out = retrieve([0.0], m, k=1)
        assert math.isnan(out[0].translation_error)


def _brute_force(refs, q, k):
    # Reference: the full stable sort of difference-form distances that
    # retrieval ran per query before the GEMM shortlist.
    diff = refs - q
    d2 = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(d2, kind="stable")[:k]
    return order, np.sqrt(d2[order])


@st.composite
def _tied_maps(draw):
    """Descriptor rows with duplicates and neighbors one ulp apart, plus queries.

    A large shared offset makes the GEMM form ||r||^2 - 2 q.r cancel badly,
    so its order can differ from the exact one by more than the gaps.
    """
    dim = draw(st.integers(1, 6))
    offset = draw(st.sampled_from([0.0, 1.0, 1e3]))
    base = np.asarray(draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)), dtype=float) + offset
    rows = []
    for _ in range(draw(st.integers(1, 25))):
        row = base + np.asarray(draw(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)), dtype=float)
        steps = draw(st.integers(-2, 2))
        col = draw(st.integers(0, dim - 1))
        for _ in range(abs(steps)):
            row[col] = np.nextafter(row[col], math.copysign(math.inf, steps))
        rows.append(row)
    refs = np.asarray(rows)
    queries = np.vstack([refs[: draw(st.integers(0, len(refs)))], base[None, :]])
    return refs, queries


class TestRetrieveMany:
    @settings(max_examples=300, deadline=None)
    @given(_tied_maps(), st.sampled_from(["1", "3", "n"]))
    def test_matches_brute_force_with_duplicates_and_ulp_ties(self, case, k_kind):
        refs, queries = case
        k = {"1": 1, "3": 3, "n": len(refs)}[k_kind]
        m = _map_of(refs)
        indices, distances = retrieve_many(queries, m, k)
        for q, idx, dist in zip(queries, indices, distances):
            want_idx, want_dist = _brute_force(m.descriptors, q, k)
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(dist, want_dist)

    def test_many_query_blocks(self):
        rng = np.random.default_rng(12)
        m = _map_of(rng.integers(-2, 3, size=(3000, 4)).astype(float))
        queries = rng.integers(-2, 3, size=(400, 4)).astype(float)
        indices, _ = retrieve_many(queries, m, 3)
        for q, idx in zip(queries, indices):
            np.testing.assert_array_equal(idx, _brute_force(m.descriptors, q, 3)[0])

    def test_non_finite_query_refused(self):
        m = _map_of([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(RefusedNonFinite):
            retrieve([math.nan, 0.0], m, k=1)
        with pytest.raises(RefusedNonFinite):
            retrieve_many([[0.0, 0.0], [math.inf, 0.0]], m, k=1)

    def test_k_below_one_is_invalid_config(self):
        m = _map_of([[0.0]])
        with pytest.raises(InvalidConfig):
            retrieve([0.0], m, k=0)


def _assert_matches_stable_argsort(queries, refs, k):
    indices, d2 = nearest_neighbors(queries, refs, k)
    assert indices.shape == d2.shape == (len(queries), min(k, len(refs)))
    for q, idx, dist in zip(queries, indices, d2):
        diff = refs - q
        want = np.einsum("ij,ij->i", diff, diff)
        order = np.argsort(want, kind="stable")[:k]
        np.testing.assert_array_equal(idx, order)
        assert dist.tobytes() == want[order].tobytes()


@st.composite
def _low_dim_searches(draw):
    """Searches of dimension <= 3: integer-lattice refs with ties and
    duplicates (every ref at one point when the span is 0), an offset up to
    1e9, half-lattice queries inside the refs' range and, optionally, far
    outside it."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 100))
    span = draw(st.sampled_from([0, 1, 3]))
    offset = draw(st.sampled_from([0.0, 0.5, -1e9, 1e9]))
    m = draw(st.sampled_from([1, 5, 127, 128, 129, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    refs = rng.integers(-span, span + 1, size=(n, dim)) + offset
    queries = rng.integers(-2 * span - 4, 2 * span + 5, size=(m, dim)) / 2.0 + offset
    if draw(st.booleans()):
        queries[::3, 0] += draw(st.sampled_from([-1e6, 1e6]))
    k = draw(st.sampled_from([1, 2, 4, max(1, n - 1), n, n + 3]))
    return queries, refs, k


def _far_refs(count=60, dim=3):
    """Refs at x in [20, 40]: they make x the widest axis and the probe smaller than the map."""
    far = np.zeros((count, dim))
    far[:, 0] = np.linspace(20.0, 40.0, count)
    return far


@st.composite
def _ranked_searches(draw):
    """Searches with k > 1 over lattice refs with duplicates and ties, of
    dimension 1 to 5 (slab-pruned and not); with ``huge``, some refs at 1e200
    overflow ||r||^2, so the shortlist cut is not finite."""
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    refs = rng.integers(-2, 3, size=(n, dim)).astype(float)
    # Exact duplicates of earlier rows.
    dups = rng.integers(0, n, size=n // 3)
    refs[rng.integers(0, n, size=len(dups))] = refs[dups]
    queries = rng.integers(-4, 5, size=(draw(st.sampled_from([1, 2, 7, 130])), dim)) / 2.0
    huge = draw(st.booleans())
    if huge:
        refs[:: draw(st.integers(2, 9)), 0] = 1e200
    k = draw(st.sampled_from([2, 3, 4, max(2, n - 1), n, n + 2]))
    return queries, refs, k, huge


class TestNearestNeighborsKernel:
    """The slab-pruned and k = 1 paths against a per-row stable argsort."""

    @settings(max_examples=300, deadline=None)
    @given(_ranked_searches())
    def test_rows_ranked_within_the_row_match_stable_argsort(self, case):
        # Most rows' shortlists hold exactly k entries and are ranked within
        # the row; ties at the k-th place and non-finite cuts take the
        # re-rank of all shortlisted entries.
        queries, refs, k, huge = case
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_matches_stable_argsort(queries, refs, k)

    @settings(max_examples=200, deadline=None)
    @given(_low_dim_searches())
    def test_low_dim_matches_stable_argsort(self, case):
        _assert_matches_stable_argsort(*case)

    @pytest.mark.parametrize("k", [1, 3])
    def test_tied_ref_exactly_at_the_slab_bound(self, k):
        # Four refs tie at distance 1 from the origin; the lowest index sits
        # at x = +1, on the slab bound of the sorted axis.
        near = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0]]
        refs = np.vstack([near, _far_refs()])
        _assert_matches_stable_argsort(np.zeros((1, 3)), refs, k)
        assert nearest_neighbors(np.zeros((1, 3)), refs, 1)[0][0, 0] == 0

    def test_underflowing_distances_keep_their_ties(self):
        # (2e-170)^2 underflows to 0, so index 0 ties with the ref at the
        # query and wins; a slab bound without its absolute margin drops it.
        refs = np.vstack([[[2e-170, 0.0, 0.0], [0.0, 0.0, 0.0]], _far_refs()])
        _assert_matches_stable_argsort(np.zeros((2, 3)), refs, 1)
        assert nearest_neighbors(np.zeros((1, 3)), refs, 1)[0][0, 0] == 0

    @pytest.mark.parametrize("dim", [3, 8])
    def test_k1_tied_minima_break_by_index(self, dim):
        # Both near refs have the same approximate value; the lower index is
        # sorted after the other, so only the tie check finds it.
        near = np.zeros((2, dim))
        near[:, 0] = [1.0, -1.0]
        _assert_matches_stable_argsort(np.zeros((3, dim)), np.vstack([near, _far_refs(dim=dim)]), 1)

    def test_k1_ulp_ties_under_a_large_offset(self):
        # Refs one ulp apart near 1e8: ||r||^2 - 2 q.r cancels, so its
        # argmin is not the exact nearest.
        base = 1e8
        col = [np.nextafter(base, math.inf), base, np.nextafter(base, -math.inf), base + 0.5, base - 0.5]
        refs = np.zeros((len(col), 3))
        refs[:, 0] = col
        refs = np.vstack([refs, _far_refs() + [base, 0.0, 0.0]])
        queries = np.array([[base, 0.0, 0.0], [np.nextafter(base, math.inf), 0.0, 0.0], [base + 0.25, 0.0, 0.0]])
        _assert_matches_stable_argsort(queries, refs, 1)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_k1_with_non_finite_approximate_values(self, dim):
        # ||r||^2 overflows for the 1e200 rows, so the GEMM values are inf
        # or nan there and the whole row is re-ranked.
        rng = np.random.default_rng(dim)
        refs = rng.integers(-2, 3, size=(80, dim)).astype(float)
        refs[::7, 0] = 1e200
        queries = np.vstack([rng.integers(-2, 3, size=(5, dim)).astype(float), np.full((1, dim), 1e200)])
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_matches_stable_argsort(queries, refs, 1)
            _assert_matches_stable_argsort(queries, refs, 4)

    @pytest.mark.parametrize("m", [127, 128, 129, 257])
    def test_query_counts_across_block_boundaries(self, m):
        rng = np.random.default_rng(m)
        refs = rng.integers(-5, 6, size=(400, 3)).astype(float)
        queries = rng.integers(-12, 13, size=(m, 3)) / 2.0
        for k in (1, 4):
            _assert_matches_stable_argsort(queries, refs, k)


class TestOracleRetrieve:
    def test_coincident_pose(self):
        m = _map_of([[0.0], [1.0]], translations=[(0, 0, 0), (5, 0, 0)])
        match = oracle_retrieve(_pose(5.0), m)
        assert match.ref_index == 1
        assert match.translation_error == 0.0

    def test_hand_distance(self):
        m = _map_of([[0.0], [1.0]], translations=[(0, 0, 0), (1, 0, 0)])
        match = oracle_retrieve(_pose(0.4), m)
        assert match.ref_index == 0
        np.testing.assert_allclose(match.translation_error, 0.4)

    def test_equidistant_tie_lower_index(self):
        m = _map_of([[0.0], [1.0]], translations=[(0, 0, 0), (1, 0, 0)])
        assert oracle_retrieve(_pose(0.5), m).ref_index == 0

    def test_empty_map(self):
        with pytest.raises(EmptyMap):
            oracle_retrieve(_pose(), _EMPTY_MAP)

    def test_lower_bounds_vpr_translation_error(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            m = _map_of(rng.standard_normal((n, 4)), translations=rng.standard_normal((n, 3)))
            pose = Pose(t=rng.standard_normal(3), q=[1, 0, 0, 0])
            vpr = retrieve(rng.standard_normal(4), m, k=1, query_pose=pose)[0]
            assert oracle_retrieve(pose, m).translation_error <= vpr.translation_error + 1e-15


class TestMapType:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            _map_of([[0.0], [1.0]], ids=["a", "a"])

    def test_non_finite_descriptor_rejected(self):
        with pytest.raises(ValueError):
            _map_of([[math.inf]])

    def test_non_finite_descriptor_names_the_first_bad_entry(self):
        with pytest.raises(RefusedNonFinite) as info:
            _map_of([[0.0, 1.0], [1.0, math.inf], [math.nan, 0.0]], ids=["a", "b#1", "c"])
        assert str(info.value) == "map entry 1 ('b#1'): descriptor must be finite"
        assert info.value.entry == 1

    def test_map_errors_are_typed(self):
        with pytest.raises(DuplicateId):
            _map_of([[0.0], [1.0]], ids=["a", "a"])
        with pytest.raises(RefusedNonFinite):
            _map_of([[math.nan]])

    def test_invalid_poses_are_typed(self):
        m = _map_of([[0.0], [1.0]])
        for t, q, error in (
            ([0.0, math.nan, 0.0], [1.0, 0.0, 0.0, 0.0], RefusedNonFinite),
            ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], ZeroQuaternion),
            ([0.0, 0.0, 0.0], [0.0, 0.6, 0.0, 0.7], NonUnitQuaternion),
        ):
            with pytest.raises(error, match="entry 1"):
                ReferenceMap(
                    ids=m.ids,
                    descriptors=m.descriptors,
                    translations=[m.translations[0], t],
                    quaternions=[m.quaternions[0], q],
                )

    @pytest.mark.parametrize(
        "t, q, error",
        [
            (np.zeros((3, 3)), np.tile([1.0, 0, 0, 0], (2, 1)), CountMismatch),
            (np.zeros((2, 3)), np.tile([1.0, 0, 0, 0], (1, 1)), CountMismatch),
            (np.zeros((2, 2)), np.tile([1.0, 0, 0, 0], (2, 1)), DimMismatch),
            (np.zeros((3, 2)), np.tile([1.0, 0, 0, 0], (2, 1)), DimMismatch),
            (np.zeros((2, 3)), np.tile([1.0, 0, 0], (2, 1)), DimMismatch),
        ],
    )
    def test_pose_block_shapes_are_typed(self, t, q, error):
        # (3, 2) translations hold 6 values, as (2, 3) would: the width is checked, not the size.
        m = _map_of([[0.0], [1.0]])
        with pytest.raises(error):
            ReferenceMap(ids=m.ids, descriptors=m.descriptors, translations=t, quaternions=q)
        with pytest.raises(error):
            m.extended(("x#1", "x#2"), [[2.0], [3.0]], t, q)

    def test_extended_leaves_original_untouched(self):
        m = _map_of([[0.0], [1.0]])
        before = m.descriptors.copy()
        pose = _pose(9.0)
        bigger = m.extended(("x#1",), [[2.0]], pose.t, pose.q)
        assert len(m) == 2 and len(bigger) == 3
        np.testing.assert_array_equal(m.descriptors, before)
        assert origin_of(bigger.ids[-1]) is Origin.REGRESSED


# Characters a pose-file id can hold: not the field separator, the quote
# character, a line terminator or a lone surrogate (not UTF-8).
_WRITABLE_ID_CHARS = st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",))


class TestMapIo:
    def _roundtrip(self, m, tmp_path):
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        return load_map(tmp_path / "p.csv", tmp_path / "d.bin")

    def test_empty_map_roundtrip(self, tmp_path):
        m = _EMPTY_MAP
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        assert (tmp_path / "d.bin").stat().st_size == 16
        assert (tmp_path / "p.csv").read_text() == "id,tx,ty,tz,qw,qx,qy,qz\n"
        loaded = load_map(tmp_path / "p.csv", tmp_path / "d.bin")
        assert len(loaded) == 0

    def test_binary_size_arithmetic(self, tmp_path):
        m = _map_of(np.arange(8, dtype=float).reshape(2, 4))
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        assert (tmp_path / "d.bin").stat().st_size == 16 + 2 * 4 * 4

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(101)
        m = _map_of(
            rng.standard_normal((7, 5)),
            translations=rng.standard_normal((7, 3)),
            ids=[f"ref/{i}" for i in range(7)],
        )
        loaded = self._roundtrip(m, tmp_path)
        assert loaded.ids == m.ids
        np.testing.assert_array_equal(
            loaded.descriptors.astype("<f4").tobytes(), m.descriptors.astype("<f4").tobytes()
        )
        np.testing.assert_allclose(loaded.translations, m.translations, atol=1e-12)
        np.testing.assert_allclose(loaded.quaternions, m.quaternions, atol=1e-12)
        # A second save reproduces identical bytes once values are f32.
        save_map(loaded, tmp_path / "p2.csv", tmp_path / "d2.bin")
        assert (tmp_path / "d2.bin").read_bytes() == (tmp_path / "d.bin").read_bytes()

    def test_count_mismatch(self, tmp_path):
        m3 = _map_of(np.zeros((3, 2)))
        m2 = _map_of(np.zeros((2, 2)))
        save_map(m3, tmp_path / "p3.csv", tmp_path / "d3.bin")
        save_map(m2, tmp_path / "p2.csv", tmp_path / "d2.bin")
        with pytest.raises(CountMismatch):
            load_map(tmp_path / "p3.csv", tmp_path / "d2.bin")

    def test_bad_magic(self, tmp_path):
        m = _map_of([[0.0]])
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        blob = bytearray((tmp_path / "d.bin").read_bytes())
        blob[:4] = b"NOPE"
        (tmp_path / "d.bin").write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            load_map(tmp_path / "p.csv", tmp_path / "d.bin")

    def test_bad_version(self, tmp_path):
        m = _map_of([[0.0]])
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        blob = bytearray((tmp_path / "d.bin").read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        (tmp_path / "d.bin").write_bytes(bytes(blob))
        with pytest.raises(VersionUnsupported):
            load_map(tmp_path / "p.csv", tmp_path / "d.bin")

    def test_truncated_payload(self, tmp_path):
        m = _map_of([[0.0, 1.0]])
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        blob = (tmp_path / "d.bin").read_bytes()
        (tmp_path / "d.bin").write_bytes(blob[:-2])
        with pytest.raises(ParseError):
            load_map(tmp_path / "p.csv", tmp_path / "d.bin")

    def test_bad_header_line(self, tmp_path):
        m = _map_of([[0.0]])
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        (tmp_path / "p.csv").write_text("wrong,header\n")
        with pytest.raises(ParseError) as info:
            load_map(tmp_path / "p.csv", tmp_path / "d.bin")
        assert info.value.line == 1

    def test_bad_float_reports_line(self, tmp_path):
        m = _map_of([[0.0], [1.0]])
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        lines = (tmp_path / "p.csv").read_text().splitlines()
        lines[2] = "r1,not_a_float,0,0,1,0,0,0"
        (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load_map(tmp_path / "p.csv", tmp_path / "d.bin")
        assert info.value.line == 3

    def test_refuses_non_finite_before_writing(self, tmp_path):
        # Corrupt a valid map in place to exercise the save-side guard.
        m = _map_of([[0.0, 1.0]])
        bad = np.array([[math.nan, 1.0]])
        object.__setattr__(m, "descriptors", bad)
        with pytest.raises(RefusedNonFinite):
            save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        assert not (tmp_path / "p.csv").exists()
        assert not (tmp_path / "d.bin").exists()

    @pytest.mark.parametrize(
        "row, error",
        [
            ("r1,nan,0,0,1,0,0,0", RefusedNonFinite),
            ("r1,0,inf,0,1,0,0,0", RefusedNonFinite),
            ("r1,1,0,0,nan,0,0,0", RefusedNonFinite),
            ("r1,1,0,0,0,0,0,0", ZeroQuaternion),
            ("r1,1,0,0,2,0,0,0", NonUnitQuaternion),
            ("r1,1,0,0,1.00001,0,0,0", NonUnitQuaternion),
        ],
    )
    def test_corrupt_pose_row_reports_line(self, tmp_path, row, error):
        m = _map_of([[0.0], [1.0], [2.0]])
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        lines = (tmp_path / "p.csv").read_text().splitlines()
        lines[2] = row
        (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(error, match="line 3"):
            load_map(tmp_path / "p.csv", tmp_path / "d.bin")

    def test_near_unit_quaternion_loads_unchanged(self, tmp_path):
        m = _map_of([[0.0], [1.0]])
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        lines = (tmp_path / "p.csv").read_text().splitlines()
        lines[2] = "r1,1,0,0,1.0000001,0,0,0"
        (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
        loaded = load_map(tmp_path / "p.csv", tmp_path / "d.bin")
        assert loaded.quaternions[1, 0] == 1.0000001

    def test_origin_inferred_from_id_marker(self, tmp_path):
        m = _map_of([[0.0], [1.0]], ids=["a0", "a0#gx1y0"])
        loaded = self._roundtrip(m, tmp_path)
        assert tuple(map(origin_of, loaded.ids)) == (Origin.ANCHOR, Origin.REGRESSED)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(st.just("#") | _WRITABLE_ID_CHARS, max_size=8), max_size=12, unique=True))
    def test_origin_round_trips_through_files(self, tmp_path_factory, ids):
        # Ids with and without the '#' marker; load keeps every id, so the
        # reloaded map's provenance is the saved map's.
        tmp = tmp_path_factory.mktemp("origin")
        m = _map_of(np.arange(float(len(ids))).reshape(-1, 1), ids=ids)
        loaded = self._roundtrip(m, tmp)
        assert loaded.ids == m.ids
        assert list(map(origin_of, loaded.ids)) == list(map(origin_of, m.ids))


def _reference_pose_csv(ref_map) -> bytes:
    """The pose CSV as save_map wrote it one field at a time."""
    lines = [",".join(POSE_CSV_HEADER) + "\n"]
    for i in range(len(ref_map)):
        fields = [ref_map.ids[i]] + [repr(float(v)) for v in (*ref_map.translations[i], *ref_map.quaternions[i])]
        lines.append(",".join(fields) + "\n")
    return "".join(lines).encode("utf-8")


def _random_map(rng, n, dim=3):
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[q[:, 0] < 0] *= -1.0
    scale = 10.0 ** rng.integers(-12, 12, size=(n, 1))
    return ReferenceMap(
        ids=tuple(f"r{i}" + ("#gx1y0" if i % 3 == 0 else "") + " é" * (i % 2) for i in range(n)),
        descriptors=rng.standard_normal((n, dim)),
        translations=rng.standard_normal((n, 3)) * scale,
        quaternions=q,
    )


class TestPoseCsv:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40))
    def test_bytes_equal_the_per_field_writer(self, tmp_path_factory, seed, n):
        tmp = tmp_path_factory.mktemp("csv")
        m = _random_map(np.random.default_rng(seed), n)
        save_map(m, tmp / "p.csv", tmp / "d.bin")
        assert (tmp / "p.csv").read_bytes() == _reference_pose_csv(m)
        back = load_map(tmp / "p.csv", tmp / "d.bin")
        assert back.ids == m.ids
        assert back.translations.tobytes() == m.translations.tobytes()
        assert back.quaternions.tobytes() == m.quaternions.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 4))
    def test_repeated_orientations_write_as_the_per_field_writer(self, tmp_path_factory, seed, n, distinct):
        tmp = tmp_path_factory.mktemp("csv")
        rng = np.random.default_rng(seed)
        m = _random_map(rng, n)
        pool = _random_map(rng, distinct).quaternions
        m = ReferenceMap(m.ids, m.descriptors, m.translations, pool[rng.integers(0, distinct, size=n)])
        save_map(m, tmp / "p.csv", tmp / "d.bin")
        assert (tmp / "p.csv").read_bytes() == _reference_pose_csv(m)
        assert load_map(tmp / "p.csv", tmp / "d.bin").quaternions.tobytes() == m.quaternions.tobytes()

    def test_signed_zero_orientations_keep_their_sign(self, tmp_path):
        # Rows equal as floats but not as bits are written and read apart.
        quats = [(1, 0, 0, 0), (1, -0.0, 0, 0), (1, 0, -0.0, 0), (1, 0, 0, -0.0), (1, 0, 0, 0), (-0.0, 1, 0, 0)]
        m = ReferenceMap(tuple(f"r{i}" for i in range(6)), np.zeros((6, 1)), np.zeros((6, 3)), np.array(quats, dtype=float))
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        written = (tmp_path / "p.csv").read_bytes()
        assert written == _reference_pose_csv(m)
        assert b"\nr1,0.0,0.0,0.0,1.0,-0.0,0.0,0.0\n" in written
        assert load_map(tmp_path / "p.csv", tmp_path / "d.bin").quaternions.tobytes() == m.quaternions.tobytes()

    @pytest.mark.parametrize("bad_id", ["a,b", 'say "hi"', "cr\r", "lf\n", ","])
    def test_unwritable_id_refused_before_writing(self, tmp_path, bad_id):
        m = _map_of([[0.0], [1.0]], ids=["ok", bad_id])
        with pytest.raises(UnwritableId):
            save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        assert isinstance(UnwritableId("x"), CoprError)
        assert not (tmp_path / "p.csv").exists()
        assert not (tmp_path / "d.bin").exists()

    def test_crlf_and_quoted_files_still_load(self, tmp_path):
        m = _map_of([[0.0], [1.0]], ids=["a", "b"])
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        text = (tmp_path / "p.csv").read_text()
        (tmp_path / "p.csv").write_bytes(text.replace("\n", "\r\n").replace("b,", '"b",').encode())
        back = load_map(tmp_path / "p.csv", tmp_path / "d.bin")
        assert back.ids == ("a", "b")
        np.testing.assert_array_equal(back.translations, m.translations)

    def test_duplicate_id_reports_line(self, tmp_path):
        m = _map_of([[0.0], [1.0], [2.0]], ids=["a", "b", "c"])
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        text = (tmp_path / "p.csv").read_text()
        (tmp_path / "p.csv").write_text(text.replace("\nc,", "\na,"))
        with pytest.raises(DuplicateId, match="line 4"):
            load_map(tmp_path / "p.csv", tmp_path / "d.bin")

    def test_non_utf8_pose_file_reports_line(self, tmp_path):
        m = _map_of([[0.0], [1.0]])
        save_map(m, tmp_path / "p.csv", tmp_path / "d.bin")
        raw = (tmp_path / "p.csv").read_bytes()
        (tmp_path / "p.csv").write_bytes(raw.replace(b"r1,", b"r\xff,"))
        with pytest.raises(ParseError) as info:
            load_map(tmp_path / "p.csv", tmp_path / "d.bin")
        assert info.value.line == 3


_FUZZ_MAP = _map_of(np.arange(12.0).reshape(4, 3), ids=["a0", "a1", "a1#gx1y0", "a2"])


class TestCorruptedFilesFuzz:
    """Corrupted map files load as some map or raise a CoprError; pose-row
    errors name the line."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 7), st.text(max_size=12))
    def test_corrupted_pose_field(self, tmp_path_factory, line, field, text):
        tmp = tmp_path_factory.mktemp("fuzz")
        save_map(_FUZZ_MAP, tmp / "p.csv", tmp / "d.bin")
        lines = (tmp / "p.csv").read_text().split("\n")
        fields = lines[line - 1].split(",")
        fields[field] = text
        lines[line - 1] = ",".join(fields)
        (tmp / "p.csv").write_text("\n".join(lines), encoding="utf-8")
        try:
            load_map(tmp / "p.csv", tmp / "d.bin")
        except CountMismatch:
            pass
        except ParseError as exc:
            # A line break or quote in the text moves the fault to a later line.
            assert exc.line is not None and exc.line >= line
            if not any(c in text for c in '\n\r"'):
                assert exc.line == line
        except CoprError as exc:
            assert re.search(r"line \d+", str(exc))
            if not isinstance(exc, DuplicateId) and not any(c in text for c in '\n\r"'):
                assert f"line {line}:" in str(exc)

    @pytest.mark.parametrize("text", ['"', 'a"b', '"x\ny"'])
    def test_quotes_raise_a_typed_error_or_load(self, tmp_path, text):
        save_map(_FUZZ_MAP, tmp_path / "p.csv", tmp_path / "d.bin")
        raw = (tmp_path / "p.csv").read_text().replace("a1,", text + ",", 1)
        (tmp_path / "p.csv").write_text(raw)
        try:
            load_map(tmp_path / "p.csv", tmp_path / "d.bin")
        except (ParseError, CountMismatch):
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)), min_size=1, max_size=6), st.integers(-8, 8))
    def test_corrupted_descriptor_bytes(self, tmp_path_factory, edits, resize):
        tmp = tmp_path_factory.mktemp("fuzz")
        save_map(_FUZZ_MAP, tmp / "p.csv", tmp / "d.bin")
        blob = bytearray((tmp / "d.bin").read_bytes())
        for offset, value in edits:
            blob[offset % len(blob)] = value
        blob = blob[: len(blob) + resize] if resize < 0 else blob + bytes(resize)
        (tmp / "d.bin").write_bytes(bytes(blob))
        try:
            loaded = load_map(tmp / "p.csv", tmp / "d.bin")
        except CoprError:
            return
        assert np.all(np.isfinite(loaded.descriptors))

    def test_signalling_nan_descriptor_is_refused_without_a_warning(self, tmp_path):
        save_map(_map_of([[1.0]]), tmp_path / "p.csv", tmp_path / "d.bin")
        blob = bytearray((tmp_path / "d.bin").read_bytes())
        blob[16:20] = struct.pack("<I", 0x7F800001)
        (tmp_path / "d.bin").write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RefusedNonFinite) as info:
                load_map(tmp_path / "p.csv", tmp_path / "d.bin")
        assert str(info.value) == f"{tmp_path / 'd.bin'} row 0: map entry 0 ('r0'): descriptor must be finite"


def _per_row_map(text: str, descriptors) -> ReferenceMap:
    """The map of the per-row reader: csv fields, then ``float()`` per value."""
    ids, values, _ = _csv_pose_rows(text)
    return ReferenceMap(ids, descriptors, values[:, :3], values[:, 3:])


def _assert_loads_as_per_row(tmp, text: str) -> None:
    """load_map of ``text`` gives the per-row reader's map, or its error
    type and ParseError line."""
    (tmp / "c.csv").write_bytes(text.encode("utf-8"))
    try:
        want = _per_row_map(text, load_descriptor_block(tmp / "d.bin"))
    except CoprError as exc:
        with pytest.raises(type(exc)) as info:
            load_map(tmp / "c.csv", tmp / "d.bin")
        if isinstance(exc, ParseError):
            assert info.value.line == exc.line
        return
    got = load_map(tmp / "c.csv", tmp / "d.bin")
    assert got.ids == want.ids
    assert got.translations.tobytes() == want.translations.tobytes()
    assert got.quaternions.tobytes() == want.quaternions.tobytes()


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-300, 1e300, -1.7976931348623157e308]
_EDGE_QUATS = [(1.0, 0.0, 0.0, 0.0), (1.0, -0.0, 5e-324, 0.0), (-0.0, 1.0, 0.0, -1e-300), (0.5, -0.5, 0.5, -0.5)]
def _replace(old, new):
    return lambda text: text.replace(old, new)


# Edits of the saved _FUZZ_MAP pose file, each with the error and line the
# per-row reader gives (None: the file loads).
_POSE_FILE_EDITS = {
    "quoted id": (_replace("\na1,", '\n"a1",'), None, None),
    "quoted float": (_replace("a1,1.0,", 'a1,"1.0",'), None, None),
    "CRLF": (_replace("\n", "\r\n"), None, None),
    "blank line": (_replace("\na1#", "\n\na1#"), None, None),
    "missing final LF": (lambda text: text[:-1], None, None),
    "7 fields": (_replace("a1,1.0,0.0,", "a1,1.0,"), ParseError, 3),
    "9 fields": (_replace("a1,1.0,", "a1,1.0,0.0,"), ParseError, 3),
    "empty field": (_replace("a1,1.0,", "a1,,"), ParseError, 3),
    "9 fields, then 7": (
        lambda text: text.replace("a1,1.0,", "a1,1.0,0.0,").replace("a2,3.0,0.0,", "a2,3.0,"),
        ParseError,
        3,
    ),
    "blank line, then 15 fields": (
        lambda text: text.replace("\na1#", "\n\na1#").replace("a2,3.0,", "a2,3.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,"),
        ParseError,
        6,
    ),
    "underscore": (_replace("a2,3.0,", "a2,1_0,"), None, None),
    "full-width digit": (_replace("a2,3.0,", "a2,\uff13.0,"), None, None),
    "space": (_replace("a2,3.0,", "a2, 3.0,"), None, None),
    "no-break space": (_replace("a2,3.0,", "a2,\xa03.0,"), None, None),
    "unit separator": (_replace("a2,3.0,", "a2,\x1c3.0,"), ParseError, 5),
    "NUL": (_replace("a2,3.0,", "a2,3.0\x00,"), ParseError, 5),
    "nan": (_replace("a2,3.0,", "a2,nan,"), RefusedNonFinite, 5),
    "nan after a blank line": (
        lambda text: text.replace("a2,3.0,", "a2,nan,").replace("\na1#", "\n\na1#"),
        RefusedNonFinite,
        6,
    ),
    "zero quaternion": (_replace("a1#gx1y0,2.0,0.0,0.0,1.0,", "a1#gx1y0,2.0,0.0,0.0,0.0,"), ZeroQuaternion, 4),
    "duplicate id": (_replace("\na2,", "\na0,"), DuplicateId, 5),
    "odd id characters": (_replace("\na1,", "\na1 \x1c\x85\u2028\x0b\xe9#,"), None, None),
    "id over the csv field limit": (
        lambda text: text.replace("\na1,", "\n" + "x" * (csv.field_size_limit() + 1) + ","),
        ParseError,
        3,
    ),
}

# Characters float() or numpy's reader may accept in a number: digits
# (ASCII, full-width, Arabic-Indic), signs, exponent, nan/inf letters,
# underscores and the whitespace each strips.
_NUMBER_TEXT_CHARS = "0123456789.eE+-_nNaAiIfF \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\uff11\u0661\x00"


class TestPoseReader:
    """Plain pose files take numpy's reader, any other the per-row reader;
    either gives the per-row reader's map, error and line."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.text(st.sampled_from("# ") | _WRITABLE_ID_CHARS, max_size=8), min_size=1, max_size=10, unique=True),
        st.data(),
    )
    def test_round_trip_keeps_ids_and_bits(self, tmp_path_factory, ids, data):
        tmp = tmp_path_factory.mktemp("reader")
        n = len(ids)
        value = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
        t = np.array(data.draw(st.lists(st.tuples(value, value, value), min_size=n, max_size=n)))
        q = np.array(data.draw(st.lists(st.sampled_from(_EDGE_QUATS), min_size=n, max_size=n)))
        m = ReferenceMap(tuple(ids), np.zeros((n, 1)), t.reshape(n, 3), q)
        save_map(m, tmp / "p.csv", tmp / "d.bin")
        back = load_map(tmp / "p.csv", tmp / "d.bin")
        assert back.ids == m.ids
        assert back.translations.tobytes() == m.translations.tobytes()
        assert back.quaternions.tobytes() == m.quaternions.tobytes()
        _assert_loads_as_per_row(tmp, (tmp / "p.csv").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("edit", list(_POSE_FILE_EDITS))
    def test_unusual_files_load_as_the_per_row_reader(self, tmp_path, edit):
        apply, error, line = _POSE_FILE_EDITS[edit]
        save_map(_FUZZ_MAP, tmp_path / "p.csv", tmp_path / "d.bin")
        text = apply((tmp_path / "p.csv").read_text())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_loads_as_per_row(tmp_path, text)
            if error is None:
                load_map(tmp_path / "c.csv", tmp_path / "d.bin")
                return
            with pytest.raises(error) as info:
                load_map(tmp_path / "c.csv", tmp_path / "d.bin")
        assert (info.value.line if error is ParseError else int(re.search(r"line (\d+):", str(info.value))[1])) == line

    def test_header_only_file_loads_without_a_warning(self, tmp_path):
        save_map(_EMPTY_MAP, tmp_path / "p.csv", tmp_path / "d.bin")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(load_map(tmp_path / "p.csv", tmp_path / "d.bin")) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 7), st.text(st.sampled_from(_NUMBER_TEXT_CHARS) | _WRITABLE_ID_CHARS, max_size=6))
    def test_any_value_text_loads_as_the_per_row_reader(self, tmp_path_factory, line, field, text):
        tmp = tmp_path_factory.mktemp("reader")
        save_map(_FUZZ_MAP, tmp / "p.csv", tmp / "d.bin")
        lines = (tmp / "p.csv").read_text().split("\n")
        fields = lines[line - 1].split(",")
        fields[field] = text
        lines[line - 1] = ",".join(fields)
        _assert_loads_as_per_row(tmp, "\n".join(lines))
