"""Row blocks: the even split, bit-equality of every blocked kernel with an
unblocked reference at the block edges and of the in-place densify with
the extended-map reference, and the peaks the blocks bound."""

import tracemalloc
import weakref

import numpy as np
import pytest

from copr import benchmarks as B
from copr import evaluate, vpr_map
from copr.blocks import even_blocks
from copr.densify import (
    _FIT_BLOCK_ROWS,
    densify_map,
    gen_extrap_grid,
    gen_interp_targets,
    lin_interp_many,
    plane_fit_many,
    subsample_trajectory,
)
from copr.errors import DimMismatch, EmptyTrainingSet, InvalidConfig, ShapeMismatch
from copr.evaluate import _oracle_summary, exp_extrapolation
from copr.geometry import relative_pose_rows
from copr.neural import core, training
from copr.neural.core import Activation, forward_batch, gelu, regress_nonlinear_batch
from copr.neural.training import build_training_pairs, init_encoder, init_regressor
from copr.vpr_map import ReferenceMap, nearest_neighbors


def _edges(r: int) -> list[int]:
    """Row counts at the edges of blocks of r rows."""
    return [1, 2, r - 1, r, r + 1, 2 * r + 1]


class TestEvenBlocks:
    @pytest.mark.parametrize("max_rows", [1, 2, 3, 4, 7, 512])
    def test_blocks_cover_the_rows_in_order_evenly(self, max_rows):
        for n in range(0, 80):
            blocks = even_blocks(n, max_rows)
            sizes = [b.stop - b.start for b in blocks]
            assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
            assert all(b.step is None for b in blocks)
            if n:
                assert max(sizes) - min(sizes) <= 1
            if n >= 2:
                # Never a one-row block, and the fewest blocks that allows.
                assert min(sizes) >= 2
                assert len(blocks) == min(-(-n // max_rows), n // 2)

    def test_one_row_and_no_rows(self):
        assert even_blocks(1, 512) == [slice(0, 1)]
        assert even_blocks(0, 512) == []
        assert even_blocks(5, 0) == [slice(0, 2), slice(2, 5)]


def _forward_reference(model, x):
    """The unblocked forward pass: every row through each layer at once."""
    a = x
    for layer in model.layers:
        z = a @ layer.weights.T
        z += layer.bias
        a = gelu(z) if layer.activation is Activation.GELU else z
    return a


def _plane_fit_reference(descriptors, translations, neighbor_idx, t_new):
    """The unblocked batched plane fit: one pseudo-inverse of all (m, k, 4) designs."""
    m, k = neighbor_idx.shape
    design = np.ones((m, k, 4))
    design[:, :, :3] = translations[neighbor_idx]
    x = np.ones((m, 1, 4))
    x[:, 0, :3] = t_new
    weights = np.matmul(x, np.linalg.pinv(design, rcond=1e-10))[:, 0, :]
    out = weights[:, :1] * descriptors[neighbor_idx[:, 0]]
    for j in range(1, k):
        out += weights[:, j : j + 1] * descriptors[neighbor_idx[:, j]]
    return out


def _pairs_reference(ref_map, max_translation, max_pairs, seed):
    """The unblocked pair construction: the whole (n, n, 3) difference array."""
    n = len(ref_map)
    t, q = ref_map.translations, ref_map.quaternions
    diff = t[:, None, :] - t[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    ii, jj = np.nonzero((dist <= max_translation) & ~np.eye(n, dtype=bool))
    if len(ii) > max_pairs:
        keep = np.random.default_rng(seed).choice(len(ii), size=max_pairs, replace=False)
        keep.sort()
        ii, jj = ii[keep], jj[keep]
    dp = relative_pose_rows(t[ii], q[ii], t[jj], q[jj])
    return ref_map.descriptors[ii], dp, ref_map.descriptors[jj]


def _random_map(rng, n, dim, spread=1.0):
    q = rng.standard_normal((n, 4))
    return ReferenceMap(
        ids=tuple(f"r{i}" for i in range(n)),
        descriptors=rng.standard_normal((n, dim)),
        translations=rng.standard_normal((n, 3)) * spread,
        quaternions=q / np.linalg.norm(q, axis=1, keepdims=True),
    )


class TestBlockEdgesKeepTheBits:
    @pytest.mark.parametrize("n", _edges(core._BLOCK_ROWS))
    @pytest.mark.parametrize("kind", ["regressor", "encoder"])
    def test_forward_batch(self, n, kind):
        rng = np.random.default_rng(n)
        model = init_regressor(32, 3) if kind == "regressor" else init_encoder(64, 8, 4)
        x = rng.standard_normal((n, model.input_dim))
        want = _forward_reference(model, x)
        out, cache = forward_batch(model, x)
        assert cache is None
        assert out.tobytes() == want.tobytes()
        assert forward_batch(model, x, keep_cache=True)[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", _edges(core._BLOCK_ROWS))
    def test_regress_nonlinear_batch(self, n):
        # Unordered, repeated rows of a 40-row block; n == 1 is a single row.
        rng = np.random.default_rng(n)
        model = init_regressor(32, 5)
        f, rows, dp = rng.standard_normal((40, 32)), rng.integers(0, 40, n), rng.standard_normal((n, 7))
        want = _forward_reference(model, np.hstack([f[rows], dp]))
        assert regress_nonlinear_batch(model, f, rows, dp).tobytes() == want.tobytes()
        out = np.empty((n, 32))
        assert regress_nonlinear_batch(model, f, rows.tolist(), dp, out=out) is out
        assert out.tobytes() == want.tobytes()

    def test_regress_nonlinear_batch_refuses_rows_that_do_not_fit(self):
        model = init_regressor(32, 5)
        f, dp = np.zeros((40, 32)), np.zeros((3, 7))
        for rows in ([0, 1], [0, 1, 2, 3], [[0, 1, 2]], 0):
            with pytest.raises(DimMismatch):
                regress_nonlinear_batch(model, f, rows, dp)
        for rows in ([0, 1, 40], [-1, 0, 1], [0.0, 1.0, 2.0], [True, False, True]):
            with pytest.raises(InvalidConfig):
                regress_nonlinear_batch(model, f, rows, dp)
        assert regress_nonlinear_batch(model, f, [], np.zeros((0, 7))).shape == (0, 32)

    @pytest.mark.parametrize("n", _edges(_FIT_BLOCK_ROWS))
    def test_plane_fit_many(self, n):
        rng = np.random.default_rng(n)
        refs = _random_map(rng, 40, 32)
        t_new = rng.standard_normal((n, 3))
        idx = nearest_neighbors(t_new, refs.translations, 4)[0]
        # A few collinear, rank-deficient designs among them.
        idx[::5] = idx[::5, :1]
        want = _plane_fit_reference(refs.descriptors, refs.translations, idx, t_new)
        got = plane_fit_many(refs.descriptors, refs.translations, idx, t_new)
        assert got.tobytes() == want.tobytes()

    def test_kernels_write_into_a_given_output_block(self):
        rng = np.random.default_rng(3)
        refs = _random_map(rng, 40, 32)
        t_new = rng.standard_normal((600, 3))
        idx = nearest_neighbors(t_new, refs.translations, 4)[0]
        model = init_regressor(32, 5)
        dp = rng.standard_normal((600, 7))
        runs = (
            lambda out: plane_fit_many(refs.descriptors, refs.translations, idx, t_new, out=out),
            lambda out: regress_nonlinear_batch(model, refs.descriptors, idx[:, 0], dp, out=out),
        )
        for run in runs:
            out = np.full((601, 32), np.nan)
            assert run(out[1:]).base is out
            assert np.isnan(out[0]).all()
            assert out[1:].tobytes() == run(None).tobytes()
            for bad in (np.empty((599, 32)), np.empty((600, 31)), np.empty((600, 32), dtype=np.float32), [[0.0]]):
                with pytest.raises(ShapeMismatch):
                    run(bad)

    @pytest.mark.parametrize("n", _edges(8))
    def test_build_training_pairs(self, monkeypatch, n):
        # Blocks of 8 rows of the (n, n, 3) difference array.
        monkeypatch.setattr(training, "_PAIR_BLOCK_ELEMENTS", 3 * n * 8)
        assert even_blocks(n, training._PAIR_BLOCK_ELEMENTS // (3 * n)) == even_blocks(n, 8)
        rng = np.random.default_rng(n)
        ref_map = _random_map(rng, n, 3, spread=0.4)
        if n == 1:
            with pytest.raises(EmptyTrainingSet):
                build_training_pairs(ref_map, 1.5, 100, seed=0)
            return
        for max_pairs in (10**6, max(1, n * n // 3)):
            got = build_training_pairs(ref_map, 1.5, max_pairs, seed=n)
            f_anchor, dp, f_target = _pairs_reference(ref_map, 1.5, max_pairs, seed=n)
            # Rows into the map's own block, which is not copied.
            assert got.descriptors is ref_map.descriptors
            rows = np.arange(len(got))
            assert got.inputs(rows).tobytes() == np.hstack([f_anchor, dp]).tobytes()
            assert got.targets(rows).tobytes() == f_target.tobytes()

    @pytest.mark.parametrize("n", _edges(core._BLOCK_ROWS))
    def test_mse_over(self, n):
        # Unordered, repeated validation rows over pairs into a 40-row block.
        rng = np.random.default_rng(n)
        model = init_regressor(32, 5)
        f = rng.standard_normal((40, 32))
        pairs = training.TrainingPairs(f, rng.integers(0, 40, 50), rng.integers(0, 40, 50), rng.standard_normal((50, 7)))
        rows = rng.integers(0, 50, n)
        err = _forward_reference(model, np.hstack([f[pairs.anchor_rows[rows]], pairs.dp[rows]]))
        err -= f[pairs.target_rows[rows]]
        err *= err
        assert training.mse_over(model, pairs, rows) == float(np.mean(err))

    def test_build_training_pairs_names_the_closest_pair_across_blocks(self, monkeypatch):
        monkeypatch.setattr(training, "_PAIR_BLOCK_ELEMENTS", 3 * 9 * 2)
        t = np.c_[np.arange(9.0) * 2.0, np.zeros((9, 2))]
        t[7, 0] = t[6, 0] + 1.25
        ref_map = ReferenceMap(tuple(f"r{i}" for i in range(9)), np.zeros((9, 1)), t, np.tile([1.0, 0, 0, 0], (9, 1)))
        with pytest.raises(EmptyTrainingSet, match="the closest pair is 1.25 m apart"):
            build_training_pairs(ref_map, 1.0, 10, seed=0)


def _ring(n, radius=10.0):
    """Points on a circle in the z = 0 plane: a block of queries sorted by x
    meets refs from both halves of the ring, so its slab is wide."""
    angle = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.c_[radius * np.cos(angle), radius * np.sin(angle), np.zeros(n)]


def _stable_argsort_knn(queries, refs, k):
    """The unblocked search: a stable sort of each query's difference-form distances."""
    k = min(k, len(refs))
    indices, d2 = np.empty((len(queries), k), dtype=np.intp), np.empty((len(queries), k))
    for i, q in enumerate(queries):
        diff = refs - q
        dist = np.einsum("ij,ij->i", diff, diff)
        indices[i] = np.argsort(dist, kind="stable")[:k]
        d2[i] = dist[indices[i]]
    return indices, d2


class TestWideSlabs:
    def _count_blocks(self, monkeypatch):
        calls = []
        block_knn = vpr_map._block_knn

        def counting(qb, *args):
            calls.append(len(qb))
            return block_knn(qb, *args)

        monkeypatch.setattr(vpr_map, "_block_knn", counting)
        return calls

    @pytest.mark.parametrize("m", _edges(vpr_map._SLAB_BLOCK))
    @pytest.mark.parametrize("k", [1, 4])
    def test_split_slabs_match_the_unblocked_search(self, monkeypatch, m, k):
        # A small budget splits every wide slab into parts of a few queries.
        monkeypatch.setattr(vpr_map, "_BLOCK_ELEMENTS", 2048)
        calls = self._count_blocks(monkeypatch)
        rng = np.random.default_rng(m)
        refs = _ring(400)
        queries = _ring(m) * rng.uniform(0.9, 1.1, size=(m, 1))
        indices, d2 = nearest_neighbors(queries, refs, k)
        want_idx, want_d2 = _stable_argsort_knn(queries, refs, k)
        np.testing.assert_array_equal(indices, want_idx)
        assert d2.tobytes() == want_d2.tobytes()
        assert 1 not in calls or m == 1
        if m > 2:
            assert len(calls) > len(even_blocks(m, vpr_map._SLAB_BLOCK))

    @pytest.mark.parametrize(
        "spans, axis", [((4.0, 1.0, 4.0), 0), ((1.0, 4.0, 4.0), 1), ((2.0, 2.0, 2.0), 0), ((0.0, 0.0, 0.0), 0)]
    )
    def test_the_first_widest_axis_wins_a_tie(self, spans, axis):
        rng = np.random.default_rng(7)
        refs = rng.uniform(0.0, 1.0, (300, 3)) * spans
        refs[:2] = [[0.0, 0.0, 0.0], spans]
        assert vpr_map._slab_axis(refs) == int(np.argmax(np.ptp(refs, axis=0))) == axis
        queries = rng.uniform(0.0, 1.0, (40, 3)) * spans
        for k in (1, 4):
            indices, d2 = nearest_neighbors(queries, refs, k)
            want_idx, want_d2 = _stable_argsort_knn(queries, refs, k)
            np.testing.assert_array_equal(indices, want_idx)
            assert d2.tobytes() == want_d2.tobytes()

    def test_a_ring_block_is_split_at_the_pinned_budget(self, monkeypatch):
        calls = self._count_blocks(monkeypatch)
        refs = _ring(6000)
        queries = _ring(128, radius=10.01)
        indices, d2 = nearest_neighbors(queries, refs, 1)
        want_idx, want_d2 = _stable_argsort_knn(queries, refs, 1)
        np.testing.assert_array_equal(indices, want_idx)
        assert d2.tobytes() == want_d2.tobytes()
        assert len(calls) > 1


def _block_knn_scaled_copy(qb, refs, ref_sq, tol, k, ref_ids):
    """The block search as it ran with a C-contiguous -2 refs^T copy: the
    GEMM against the scaled copy, then the same shortlist and re-rank."""
    approx = np.matmul(qb, np.multiply(refs.T, -2.0, out=np.empty(refs.shape[::-1])))
    approx += ref_sq
    if k == 1:
        best = approx.argmin(axis=1)
        cut = approx[np.arange(len(qb)), best] + tol
    else:
        cut = np.partition(approx, k - 1, axis=1)[:, k - 1] + tol
    shortlist = approx <= cut[:, None]
    shortlist[~np.isfinite(cut)] = True
    counts = np.count_nonzero(shortlist, axis=1)
    if k == 1:
        diff = refs[best] - qb
        found = (best if ref_ids is None else ref_ids[best])[:, None]
        d2 = np.einsum("ij,ij->i", diff, diff)[:, None]
    else:
        found = np.empty((len(qb), k), dtype=np.intp)
        d2 = np.empty((len(qb), k))
        flat = np.flatnonzero(shortlist)
        full = np.flatnonzero(counts == k)
        cols = flat[(np.cumsum(counts) - counts)[full, None] + np.arange(k)] % approx.shape[1]
        found[full], d2[full] = vpr_map._rank_rows(qb[full], refs, cols, ref_ids)
    tied = np.flatnonzero(counts > k)
    if len(tied):
        found[tied], d2[tied] = vpr_map._rerank(qb[tied], refs, shortlist[tied], k, ref_ids)
    return found, d2


class TestShortlistReadsTheRefsInPlace:
    """The GEMM reads refs through a transposed view and scales its block by
    -2 afterwards; indices and d2 bytes equal those of the scaled copy."""

    def _check(self, monkeypatch, queries, refs, k):
        got = nearest_neighbors(queries, refs, k)
        with monkeypatch.context() as patch:
            patch.setattr(vpr_map, "_block_knn", _block_knn_scaled_copy)
            want = nearest_neighbors(queries, refs, k)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("k", [1, 4])
    def test_loop_plan(self, monkeypatch, loop_plan, k):
        scene, plan = loop_plan
        self._check(monkeypatch, plan.translations, scene.gt_dense.translations, k)

    @pytest.mark.parametrize("k", [1, 5])
    def test_dense_map_retrieval(self, monkeypatch, loop_plan, k):
        scene, plan = loop_plan
        dense = densify_map(scene.gt_dense, plan, "lin_reg")
        self._check(monkeypatch, scene.queries.descriptors, dense.descriptors, k)

    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_half_integer_grids(self, monkeypatch, dim, k):
        # Small integer grids tie many refs at the same distance.
        rng = np.random.default_rng(dim * 100 + k)
        refs = rng.integers(-4, 5, size=(3000, dim)) / 2.0
        queries = rng.integers(-8, 9, size=(700, dim)) / 4.0
        self._check(monkeypatch, queries, refs, k)


@pytest.fixture(scope="module")
def loop_plan():
    """The pinned loop scene's reference map and its 0.05 m extrapolation plan."""
    scene = B.make_benchmark_scene("loop")
    anchors, _ = subsample_trajectory(scene.gt_dense, B.LOOP_DENSIFY.stride)
    return scene, gen_extrap_grid(anchors, B.LOOP_DENSIFY)


def _densify_reference(sparse, plan, method, model=None, neighbors=4):
    """The dense map built the way densify_map built it before it wrote into
    one block: the regressed rows as a block of their own, appended by
    :meth:`ReferenceMap.extended`."""
    t = plan.translations
    if method == "lin_interp":
        row_of = {entry_id: i for i, entry_id in enumerate(sparse.ids)}
        i1, i2 = np.array([[row_of[plan.anchors[a]] for a in pair] for pair in plan.anchor_rows]).T
        f, p = sparse.descriptors, sparse.translations
        regressed = lin_interp_many(f[i1], f[i2], p[i1], p[i2], t)
    elif method == "lin_reg":
        idx = nearest_neighbors(t, sparse.translations, neighbors)[0]
        regressed = plane_fit_many(sparse.descriptors, sparse.translations, idx, t)
    else:
        nearest = nearest_neighbors(t, sparse.translations, 1)[0][:, 0]
        dp = relative_pose_rows(sparse.translations[nearest], sparse.quaternions[nearest], t, plan.quaternions)
        regressed = regress_nonlinear_batch(model, sparse.descriptors[nearest], np.arange(len(dp)), dp)
    return sparse.extended(plan.targets, regressed, t, plan.quaternions)


class TestDensifyInPlaceKeepsTheBits:
    @pytest.mark.parametrize("method", ["lin_interp", "lin_reg", "nonlin_reg"])
    def test_densify_map_equals_extended(self, loop_plan, method):
        scene, plan = loop_plan
        sparse = scene.gt_dense
        if method == "lin_interp":
            sparse, dropped = subsample_trajectory(scene.gt_dense, 7)
            plan = gen_interp_targets(sparse, dropped)
        model = init_regressor(scene.dim, 0) if method == "nonlin_reg" else None
        got = densify_map(sparse, plan, method, model=model)
        want = _densify_reference(sparse, plan, method, model)
        assert got.ids == want.ids
        for block in ("descriptors", "translations", "quaternions"):
            assert getattr(got, block).tobytes() == getattr(want, block).tobytes()
        assert not got.descriptors.flags.writeable


def _peak_over_output(fn, output_bytes) -> float:
    """MB that ``fn`` holds at its peak beyond ``output_bytes(result)``."""
    fn()
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - output_bytes(result)) / 1e6


def _dense_bytes(ref_map) -> int:
    return ref_map.descriptors.nbytes + ref_map.translations.nbytes + ref_map.quaternions.nbytes


class TestBoundedPeaks:
    """On the 17,231-entry dense loop map the unblocked kernels peaked at
    29.4 MB (regression) and 21.4 MB (oracle) over their output; blocked,
    at 6.3 and 3.3 MB.

    densify_map writes the regressed rows straight into the dense map's
    one descriptor block, so neither regressor holds a second copy of its
    rows: nonlin_reg then peaked at 5.2 MB over its output (6.3 before) and
    lin_reg at 1.3 MB (5.8 before). The protocols hold one dense map at a
    time, so one loop extrapolation, which densifies twice, peaked at
    14.7 MB (22.2 MB before both changes).

    The kernels read the map's blocks in place: nonlin_reg gathers each
    block's anchor rows, not the whole (16,231, 32) anchor block, and the
    k-NN GEMM reads the refs through a transposed view, not a -2 refs^T
    copy. nonlin_reg then peaked at 2.9 MB (5.2 before), one loop
    extrapolation at 10.6 MB (14.7), the oracle summary at 2.8 MB (3.3)
    and localization of the scene's queries on the dense map at 2.5 MB
    (7.0).
    """

    def test_nonlin_reg_densify(self, loop_plan):
        scene, plan = loop_plan
        model = init_regressor(scene.dim, 0)
        peak = _peak_over_output(lambda: densify_map(scene.gt_dense, plan, "nonlin_reg", model=model), _dense_bytes)
        assert len(scene.gt_dense) + len(plan.targets) == 17231
        assert peak < 4.0

    def test_lin_reg_densify(self, loop_plan):
        scene, plan = loop_plan
        peak = _peak_over_output(lambda: densify_map(scene.gt_dense, plan, "lin_reg"), _dense_bytes)
        assert peak < 3.0

    def test_oracle_summary(self, loop_plan):
        scene, plan = loop_plan
        dense = densify_map(scene.gt_dense, plan, "lin_reg")
        peak = _peak_over_output(lambda: _oracle_summary(scene.queries, dense), lambda summary: 0)
        assert peak < 4.0

    def test_localize_and_summarize(self, loop_plan):
        scene, plan = loop_plan
        dense = densify_map(scene.gt_dense, plan, "lin_reg")
        peak = _peak_over_output(lambda: evaluate.localize_and_summarize(scene.queries, dense), lambda summary: 0)
        assert peak < 4.0

    def test_exp_extrapolation(self, loop_plan):
        scene, _ = loop_plan
        model = init_regressor(scene.dim, 0)
        peak = _peak_over_output(lambda: exp_extrapolation(scene, B.LOOP_DENSIFY, model=model), lambda report: 0)
        assert peak < 12.0

    def test_one_dense_map_alive_at_a_time(self, loop_plan, monkeypatch):
        scene, _ = loop_plan
        built = []

        def densify_tracked(*args, **kwargs):
            assert [ref() for ref in built if ref() is not None] == []
            dense = densify_map(*args, **kwargs)
            built.append(weakref.ref(dense))
            return dense

        monkeypatch.setattr(evaluate, "densify_map", densify_tracked)
        report = exp_extrapolation(scene, B.LOOP_DENSIFY, model=init_regressor(scene.dim, 0))
        assert len(built) == 2
        assert [r.densification for r in report.rows] == ["-", "-", "LinReg", "NonLinReg"]
