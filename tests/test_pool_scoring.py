"""Full-pool scoring: the blocked decision pass and the selections around it.

``SVMModel.decision_function`` scores a pool block by block and never holds
an ``(N, n_SV)`` kernel matrix, scores a linear model by its primal weight,
and serves kernel columns held in a ``PoolColumns`` from an earlier pass;
``rank(top_k=...)`` and ``NearLabeledSelection.select`` pick their few
winners without sorting the pool.  Every test here pins one of them to the
plain formulation it replaced: ``kernel(x, sv) @ dual_coef + bias`` and a
stable full ``argsort``.  Where the summation order changed, the bound is
the worst-case gap between two orders of the same sum (``_order_bound``).
"""

from __future__ import annotations

import importlib.util
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro import FeedbackRequest, ImageDatabase, ImageDataset, SearchRequest
from repro.cbir.query import Query
from repro.cbir.search import SearchEngine
from repro.core import LRFCSVM, CoupledSVM
from repro.core.unlabeled_selection import NearLabeledSelection
from repro.exceptions import ValidationError
from repro.feedback.base import FeedbackContext, RelevanceFeedbackAlgorithm
from repro.feedback.euclidean import EuclideanFeedback
from repro.svm import model as svm_model
from repro.svm.kernels import LinearKernel, RBFKernel
from repro.svm.model import PoolColumns, SVMModel
from repro.utils.arrays import stable_top_k

#: Kernel entries per block in these tests: small, so a few hundred rows
#: already span several blocks (the production constant is 2**17).
TEST_BLOCK = 96

KERNELS = {
    "rbf": lambda: RBFKernel(gamma=0.21),
    "linear": LinearKernel,
}


@pytest.fixture()
def small_blocks(monkeypatch):
    monkeypatch.setattr(svm_model, "_BLOCK_ENTRIES", TEST_BLOCK)


def _one_shot(model: SVMModel, x) -> np.ndarray:
    """The formulation the blocked pass replaced (the tests' reference)."""
    if model.num_support_vectors == 0:
        return np.full(x.shape[0], model.bias)
    return model.kernel(x, model.support_vectors) @ model.dual_coef + model.bias


def _order_bound(model: SVMModel, x) -> np.ndarray:
    """Per-row bound on the gap between two summation orders of ``f(x)``.

    Both orders sum the same products; each differs from the exact sum by
    at most ``n * u`` times the sum of their magnitudes, with ``n`` the
    number of additions and ``u = eps / 2`` — so ``n * eps`` times the
    magnitudes bounds the gap.  For the linear primal the products are
    ``x_ik sv_jk c_j``; for a kernel in ``[0, 1]`` (RBF) ``|c_j|`` bounds
    each product.
    """
    eps = np.finfo(np.float64).eps
    dense = x.toarray() if sparse.issparse(x) else np.asarray(x)
    if isinstance(model.kernel, LinearKernel):
        count = model.support_vectors.shape[1] + model.num_support_vectors + 1
        magnitude = np.abs(dense) @ (np.abs(model.support_vectors).T @ np.abs(model.dual_coef))
    else:
        count = model.num_support_vectors + 1
        magnitude = np.full(dense.shape[0], np.abs(model.dual_coef).sum())
    return count * eps * (magnitude + abs(model.bias))


def _problem(seed: int, rows: int, num_sv: int, dim: int = 7):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(rows, dim)),
        rng.normal(size=(num_sv, dim)),
        rng.normal(size=num_sv),
        float(rng.normal()),
    )


class _RecordingRBF(RBFKernel):
    """An RBF kernel that notes the shape of every matrix it returns."""

    def __init__(self, gamma):
        super().__init__(gamma)
        self.shapes = []

    def __call__(self, a, b, *, a_sq=None):
        result = super().__call__(a, b, a_sq=a_sq)
        self.shapes.append(result.shape)
        return result


# --------------------------------------------------------------- blocked pass
@pytest.mark.usefixtures("small_blocks")
class TestBlockedDecisionFunction:
    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    @pytest.mark.parametrize(
        "rows, num_sv",
        [
            (5, 8),  # below one block (12 rows per block)
            (12, 8),  # exactly one block
            (151, 8),  # not a multiple of the block
            (240, 8),  # a whole number of blocks
            (333, 1),  # a single support vector: one block of 96 rows at a time
            (40, 200),  # more support vectors than block entries: one row per block
        ],
    )
    def test_matches_one_shot(self, kernel_name, rows, num_sv):
        x, sv, coef, bias = _problem(rows * 31 + num_sv, rows, num_sv)
        model = SVMModel(sv, coef, bias, KERNELS[kernel_name]())
        np.testing.assert_allclose(
            model.decision_function(x), _one_shot(model, x), rtol=0.0, atol=1e-12
        )

    @given(
        st.integers(1, 300),
        st.integers(1, 40),
        st.sampled_from(sorted(KERNELS)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_one_shot_for_any_shape(self, rows, num_sv, kernel_name, seed):
        x, sv, coef, bias = _problem(seed, rows, num_sv)
        model = SVMModel(sv, coef, bias, KERNELS[kernel_name]())
        np.testing.assert_allclose(
            model.decision_function(x), _one_shot(model, x), rtol=0.0, atol=1e-12
        )

    def test_empty_model_scores_the_bias(self):
        model = SVMModel(np.zeros((0, 4)), np.zeros(0), -0.25, RBFKernel(gamma=1.0))
        x = np.ones((9, 4))
        np.testing.assert_array_equal(model.decision_function(x), np.full(9, -0.25))
        np.testing.assert_array_equal(
            model.decision_function(x, x_sq=np.full(9, 4.0)), np.full(9, -0.25)
        )

    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    @pytest.mark.parametrize(
        "layout", [sparse.csr_matrix, sparse.csc_matrix, sparse.csr_array]
    )
    def test_sparse_rows_in_any_layout(self, kernel_name, layout):
        rng = np.random.default_rng(5)
        pool = rng.integers(-1, 2, size=(157, 9)).astype(np.float64)
        pool[rng.random(pool.shape) < 0.7] = 0.0
        model = SVMModel(pool[[3, 50, 51, 120]], rng.normal(size=4), 0.3, KERNELS[kernel_name]())
        scores = model.decision_function(layout(pool))
        assert type(scores) is np.ndarray and scores.shape == (157,)
        np.testing.assert_allclose(scores, _one_shot(model, pool), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_norms_passed_equal_norms_recomputed(self, kernel_name):
        x, sv, coef, bias = _problem(11, 203, 9)
        model = SVMModel(sv, coef, bias, KERNELS[kernel_name]())
        np.testing.assert_array_equal(
            model.decision_function(x, x_sq=np.sum(x * x, axis=1)),
            model.decision_function(x),
        )

    def test_misaligned_norms_are_rejected(self):
        x, sv, coef, bias = _problem(2, 30, 4)
        model = SVMModel(sv, coef, bias, RBFKernel(gamma=0.5))
        with pytest.raises(ValidationError, match="x_sq"):
            model.decision_function(x, x_sq=np.ones(29))

    @pytest.mark.parametrize("rows, num_sv", [(5, 8), (151, 8), (333, 1), (40, 200)])
    def test_kernel_sees_every_entry_once_and_never_the_whole_pool(self, rows, num_sv):
        x, sv, coef, bias = _problem(7, rows, num_sv)
        kernel = _RecordingRBF(0.3)
        SVMModel(sv, coef, bias, kernel).decision_function(x, x_sq=np.sum(x * x, axis=1))
        # What the bench sums into ``svm.kernel.evals``: exactly N x n_SV.
        assert sum(r * c for r, c in kernel.shapes) == rows * num_sv
        assert all(c == num_sv for _, c in kernel.shapes)
        step = max(1, TEST_BLOCK // num_sv)
        assert len(kernel.shapes) == -(-rows // step)
        assert max(r for r, _ in kernel.shapes) <= step


# -------------------------------------------------------------- linear primal
_LAYOUTS = {
    "dense": np.asarray,
    "csr": sparse.csr_matrix,
    "csc": sparse.csc_matrix,
    "coo": sparse.coo_matrix,
    "csr_array": sparse.csr_array,
}


class TestLinearPrimal:
    """A linear model scores ``x @ w + b`` with ``w = sv.T @ dual_coef``."""

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_expansion_within_the_order_bound(self, layout, seed):
        rng = np.random.default_rng(seed)
        pool = rng.integers(-1, 2, size=(301, 23)).astype(np.float64)
        pool[rng.random(pool.shape) < 0.8] = 0.0
        pool[:5] = 0.0  # images nobody judged
        sv = rng.integers(-1, 2, size=(17, 23)).astype(np.float64)
        model = SVMModel(sv, rng.normal(size=17), float(rng.normal()), LinearKernel())
        scores = model.decision_function(_LAYOUTS[layout](pool))
        assert type(scores) is np.ndarray and scores.shape == (301,)
        gap = np.abs(scores - _one_shot(model, pool))
        assert np.all(gap <= _order_bound(model, pool))
        np.testing.assert_array_equal(scores[:5], np.full(5, model.bias))

    def test_dense_rows_of_any_scale(self):
        x, sv, coef, bias = _problem(4, 250, 30, dim=40)
        model = SVMModel(sv, coef * 1e3, bias, LinearKernel())
        gap = np.abs(model.decision_function(x) - _one_shot(model, x))
        assert np.all(gap <= _order_bound(model, x))

    def test_makes_no_kernel_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            LinearKernel, "__call__",
            _counting(LinearKernel.__call__, lambda result: calls.append(result.shape)),
        )
        x, sv, coef, bias = _problem(3, 500, 12)
        model = SVMModel(sv, coef, bias, LinearKernel())
        model.decision_function(x)
        model.decision_function(sparse.csr_matrix(x))
        assert calls == []

    def test_weight_is_computed_once(self):
        x, sv, coef, bias = _problem(5, 10, 6)
        model = SVMModel(sv, coef, bias, LinearKernel())
        weight = model.primal_weight
        np.testing.assert_array_equal(weight, sv.T @ coef)
        model.decision_function(x)
        assert model.primal_weight is weight

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_empty_model_scores_the_bias(self, layout):
        model = SVMModel(np.zeros((0, 4)), np.zeros(0), -0.25, LinearKernel())
        scores = model.decision_function(_LAYOUTS[layout](np.ones((9, 4))))
        np.testing.assert_array_equal(scores, np.full(9, -0.25))

    def test_misaligned_norms_are_rejected(self):
        x, sv, coef, bias = _problem(2, 30, 4)
        model = SVMModel(sv, coef, bias, LinearKernel())
        with pytest.raises(ValidationError, match="x_sq"):
            model.decision_function(x, x_sq=np.ones(29))


# --------------------------------------------------------------- held columns
def _two_stage_problem(seed: int, rows: int = 157, dim: int = 6):
    """A pool, its labelled rows, and the two models of one coupled round:
    one trained on the labelled rows, one on labelled + unlabeled rows."""
    rng = np.random.default_rng(seed)
    labelled = rng.normal(size=(11, dim))
    unlabelled = rng.normal(size=(7, dim))
    pool = rng.normal(size=(rows, dim))
    labels = rng.choice([-1.0, 1.0], size=18)
    alphas = rng.uniform(0.0, 2.0, size=18)
    alphas[[1, 4, 12, 15]] = 0.0  # non-support labelled and unlabeled rows
    return pool, labelled, unlabelled, labels, alphas, float(rng.normal())


@pytest.mark.usefixtures("small_blocks")
class TestPoolColumns:
    def _models(self, seed, kernel_first, kernel_second=None):
        pool, labelled, unlabelled, labels, alphas, bias = _two_stage_problem(seed)
        first = SVMModel.from_dual(labelled, labels[:11], alphas[:11], bias, kernel_first)
        second = SVMModel.from_dual(
            np.vstack([labelled, unlabelled]), labels, alphas, -bias,
            kernel_first if kernel_second is None else kernel_second,
        )
        return pool, labelled, first, second

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_second_pass_evaluates_only_the_other_support_vectors(self, seed):
        kernel = _RecordingRBF(0.4)
        pool, labelled, first, second = self._models(seed, kernel)
        columns = PoolColumns(labelled)
        norms = np.sum(pool * pool, axis=1)
        for model in (first, second):
            kernel.shapes.clear()
            scores = model.decision_function(pool, x_sq=norms, columns=columns)
            entries = sum(r * c for r, c in kernel.shapes)
            assert np.all(np.abs(scores - _one_shot(model, pool)) <= _order_bound(model, pool))
            if model is first:
                assert entries == pool.shape[0] * labelled.shape[0]
        # The coupled model's labelled columns came from the first pass.
        assert entries == pool.shape[0] * int(np.sum(second.support >= labelled.shape[0]))

    def test_held_and_fresh_columns_give_the_same_bits(self):
        pool, labelled, first, second = self._models(3, RBFKernel(gamma=0.4))
        held = PoolColumns(labelled)
        first.decision_function(pool, columns=held)
        np.testing.assert_array_equal(
            second.decision_function(pool, columns=held),
            second.decision_function(pool, columns=PoolColumns(labelled)),
        )

    def test_another_kernel_gets_fresh_blocks_that_are_not_kept(self):
        kernel = _RecordingRBF(0.4)
        pool, labelled, first, second = self._models(4, kernel, RBFKernel(gamma=0.9))
        columns = PoolColumns(labelled)
        first.decision_function(pool, columns=columns)
        scores = second.decision_function(pool, columns=columns)
        assert np.all(np.abs(scores - _one_shot(second, pool)) <= _order_bound(second, pool))
        kernel.shapes.clear()
        first.decision_function(pool, columns=columns)  # still the first kernel's
        assert kernel.shapes == []

    def test_a_refitted_bandwidth_is_another_kernel(self):
        kernel = RBFKernel("scale").fit(np.eye(3))
        pool, labelled, first, second = self._models(5, kernel)
        columns = PoolColumns(labelled)
        first.decision_function(pool, columns=columns)
        kernel.fit(np.arange(18.0).reshape(6, 3))  # the same object, another gamma
        scores = second.decision_function(pool, columns=columns)
        assert np.all(np.abs(scores - _one_shot(second, pool)) <= _order_bound(second, pool))

    def test_another_pool_gets_fresh_blocks(self):
        pool, labelled, first, second = self._models(6, RBFKernel(gamma=0.4))
        columns = PoolColumns(labelled)
        first.decision_function(pool, columns=columns)
        other = pool[::-1].copy()
        scores = second.decision_function(other, columns=columns)
        assert np.all(np.abs(scores - _one_shot(second, other)) <= _order_bound(second, other))

    def test_rows_that_are_not_the_models_are_rejected(self):
        pool, labelled, first, _ = self._models(7, RBFKernel(gamma=0.4))
        with pytest.raises(ValidationError, match="leading training rows"):
            first.decision_function(pool, columns=PoolColumns(labelled + 1.0))

    def test_a_model_without_support_indices_is_rejected(self):
        x, sv, coef, bias = _problem(8, 20, 3)
        model = SVMModel(sv, coef, bias, RBFKernel(gamma=0.4))
        with pytest.raises(ValidationError, match="support indices"):
            model.decision_function(x, columns=PoolColumns(sv))


def test_production_block_is_about_one_megabyte():
    assert svm_model._BLOCK_ENTRIES * 8 == 2**20


# ------------------------------------------------------------- database norms
def _gaussian_database(num_images: int = 400, dim: int = 6, seed: int = 3) -> ImageDatabase:
    rng = np.random.default_rng(seed)
    dataset = ImageDataset(
        images=[None] * num_images,
        labels=rng.integers(0, 4, size=num_images),
        category_names=("a", "b", "c", "d"),
        features=rng.normal(size=(num_images, dim)),
        name="pool-scoring",
    )
    return ImageDatabase(dataset)


class _SlowCountingFeatures(np.ndarray):
    """A feature matrix whose squaring is slow and counted."""

    squarings = 0

    def __mul__(self, other):
        type(self).squarings += 1
        time.sleep(0.05)  # every racing reader arrives while this one computes
        return np.asarray(self) * np.asarray(other)


class TestDatabaseNorms:
    def test_equal_the_plain_formula_bit_for_bit(self):
        database = _gaussian_database()
        features = database.features
        norms = database.feature_sq_norms
        np.testing.assert_array_equal(norms, np.sum(features * features, axis=1))
        assert norms.shape == (database.num_images,)
        assert database.feature_sq_norms is norms  # cached, not recomputed
        assert not norms.flags.writeable

    def test_computed_once_under_concurrent_first_use(self):
        database = _gaussian_database()
        _SlowCountingFeatures.squarings = 0
        database._features = database.features.view(_SlowCountingFeatures)
        readers = 8
        barrier = threading.Barrier(readers)
        seen = []

        def read():
            barrier.wait(timeout=10)
            seen.append(database.feature_sq_norms)

        threads = [threading.Thread(target=read) for _ in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert _SlowCountingFeatures.squarings == 1
        assert len(seen) == readers and all(norms is seen[0] for norms in seen)

    def test_candidate_slices_match_sliced_features(self):
        database = _gaussian_database()
        candidates = np.array([0, 7, 8, 150, 151, 399])
        sliced = database.features[candidates]
        np.testing.assert_array_equal(
            database.feature_sq_norms[candidates], np.sum(sliced * sliced, axis=1)
        )


# ------------------------------------------------------ served path, end to end
def _load_bench_workloads():
    # Loaded by path, as tests/test_bench_targets.py does: ``bench`` is not
    # an installed package.
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _serve_sessions(workloads, inputs, workdir, algorithm, params):
    """Top-20 indices of every response of four 3-round sessions."""
    spec = workloads.SPECS["smoke"]["interactive_csvm"]
    system = workloads.build_system(spec, inputs, workdir)
    served = []
    try:
        for query in (int(q) for q in inputs.queries[:4]):
            response = system.front.open_session(
                SearchRequest(
                    query=query, top_k=20, algorithm=algorithm, algorithm_params=params
                )
            )
            for _ in range(3):
                served.append(response.image_indices.copy())
                response = system.front.submit_feedback(
                    FeedbackRequest(
                        response.session_id,
                        workloads.judge(inputs.labels, query, response),
                        top_k=20,
                    )
                )
            served.append(response.image_indices.copy())
            system.front.close_session(response.session_id)
    finally:
        system.close()
    return served


class TestServedRankingsMatchOneShot:
    """The strategies, served on the bench's smoke pool, rank as they do
    with the one-shot decision function patched back in."""

    @pytest.fixture(scope="class")
    def workloads(self):
        return _load_bench_workloads()

    @pytest.fixture(scope="class")
    def inputs(self, workloads):
        return workloads.make_inputs(100, workloads.SPECS["smoke"]["interactive_csvm"])

    @pytest.mark.parametrize(
        "algorithm, params",
        [
            ("rf-svm", {}),
            ("lrf-2svms", {}),
            ("lrf-csvm", {}),
        ],
        ids=["rf-svm", "lrf-2svms", "lrf-csvm"],
    )
    def test_same_indices(self, workloads, inputs, tmp_path, monkeypatch, algorithm, params):
        blocked = _serve_sessions(workloads, inputs, tmp_path / "blocked", algorithm, params)
        monkeypatch.setattr(
            SVMModel,
            "decision_function",
            lambda self, x, *, x_sq=None, columns=None: _one_shot(self, x),
        )
        reference = _serve_sessions(workloads, inputs, tmp_path / "one-shot", algorithm, params)
        assert len(blocked) == len(reference) == 16
        for ours, theirs in zip(blocked, reference):
            np.testing.assert_array_equal(ours, theirs)


class TestHeldColumnsOnTheSmokePool:
    """LRF-CSVM's stage 3 with the selection stage's held columns equals a
    fresh expansion over the coupled visual SVM's support vectors."""

    @pytest.fixture(scope="class")
    def workloads(self):
        return _load_bench_workloads()

    @staticmethod
    def _record_stage_three(monkeypatch):
        """Score every stage 3 both ways; note the RBF entries of the held way."""
        entries = []
        monkeypatch.setattr(
            RBFKernel, "__call__",
            _counting(RBFKernel.__call__, lambda result: entries.append(result.size)),
        )
        original = CoupledSVM.decision_function
        stages = []

        def both_ways(self, visual, log, *, visual_sq_norms=None, visual_columns=None):
            assert visual_columns is not None, "stage 3 was not handed the held columns"
            entries.clear()
            held = original(
                self, visual, log, visual_sq_norms=visual_sq_norms, visual_columns=visual_columns
            )
            held_entries = sum(entries)
            fresh = original(self, visual, log, visual_sq_norms=visual_sq_norms)
            model = self.visual_svm_.model_
            unlabelled = int(np.sum(model.support >= visual_columns.num_rows))
            stages.append(
                (held, fresh, _order_bound(model, visual), held_entries,
                 visual.shape[0], visual_columns.num_rows, unlabelled)
            )
            return held

        monkeypatch.setattr(CoupledSVM, "decision_function", both_ways)
        return stages

    @staticmethod
    def _check(stages, *, reused):
        assert len(stages) >= 3
        for held, fresh, bound, entries, pool, labelled, unlabelled in stages:
            assert np.all(np.abs(held - fresh) <= bound)
            assert set(np.argsort(-held, kind="stable")[:20]) == set(
                np.argsort(-fresh, kind="stable")[:20]
            )
            columns = unlabelled if reused else labelled + unlabelled
            assert entries == pool * columns

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_with_session_memory(self, workloads, tmp_path, monkeypatch, seed):
        inputs = workloads.make_inputs(seed, workloads.SPECS["smoke"]["interactive_csvm"])
        stages = self._record_stage_three(monkeypatch)
        _serve_sessions(workloads, inputs, tmp_path, "lrf-csvm", {})
        # One bandwidth per session: the coupled kernel is the selection
        # stage's, so its labelled columns are reused.
        self._check(stages, reused=True)

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_without_session_memory(self, workloads, tmp_path, monkeypatch, seed):
        spec = workloads.SPECS["smoke"]["interactive_csvm"]
        inputs = workloads.make_inputs(seed, spec)
        system = workloads.build_system(spec, inputs, tmp_path)
        try:
            stages = self._record_stage_three(monkeypatch)
            for query in (int(q) for q in inputs.queries[:6]):
                response = system.front.open_session(SearchRequest(query=query, top_k=20))
                judgements = workloads.judge(inputs.labels, query, response)
                context = FeedbackContext(
                    system.database,
                    Query(query_index=query),
                    np.fromiter(judgements, dtype=np.int64),
                    np.array(list(judgements.values()), dtype=np.float64),
                )
                if context.has_both_classes:
                    LRFCSVM().score(context)
        finally:
            system.close()
        # gamma="scale" is resolved on other rows by the coupled stage: the
        # labelled columns are computed again, with the coupled kernel.
        self._check(stages, reused=False)


def _counting(method, note):
    def counted(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        note(result)
        return result

    return counted


# ------------------------------------------------------------------ tie rules
def _tie_heavy(draw, min_size=1, max_size=120):
    """Scores drawn from a handful of values, so ties are everywhere."""
    size = draw(st.integers(min_size, max_size))
    levels = draw(st.integers(1, 5))
    values = draw(st.lists(st.integers(0, levels - 1), min_size=size, max_size=size))
    return np.asarray(values, dtype=np.float64) / 4.0


@st.composite
def _scores_and_k(draw):
    scores = _tie_heavy(draw)
    return scores, draw(st.integers(1, scores.shape[0]))


class TestStableTopK:
    @given(_scores_and_k())
    @settings(max_examples=300, deadline=None)
    def test_is_the_prefix_of_the_stable_sort(self, case):
        values, k = case
        np.testing.assert_array_equal(
            stable_top_k(values, k), np.argsort(values, kind="stable")[:k]
        )

    @pytest.mark.parametrize("k", [1, 2, 49, 50, 199, 200])
    def test_all_equal_values_keep_index_order(self, k):
        np.testing.assert_array_equal(stable_top_k(np.full(200, 0.5), k), np.arange(k))

    def test_single_entry(self):
        np.testing.assert_array_equal(stable_top_k(np.array([3.0]), 1), [0])

    def test_ties_straddling_the_boundary(self):
        values = np.array([2.0, 1.0] * 50)  # fifty 1.0s at the odd indices
        np.testing.assert_array_equal(stable_top_k(values, 3), [1, 3, 5])
        values[::2] = 1.0
        np.testing.assert_array_equal(stable_top_k(values, 3), [0, 1, 2])

    def test_zero_k_selects_nothing(self):
        assert stable_top_k(np.arange(10.0), 0).shape == (0,)

    def test_negative_k_is_rejected(self):
        """``argsort(...)[:-1]`` would hand back all but one entry."""
        with pytest.raises(ValidationError):
            stable_top_k(np.arange(10.0), -1)


class _PresetScores(RelevanceFeedbackAlgorithm):
    name = "preset"

    def __init__(self, scores):
        self.scores = scores

    def score(self, context):
        return self.scores


class TestRankTopK:
    @pytest.fixture(scope="class")
    def context(self):
        database = _gaussian_database()
        return FeedbackContext(database, Query(query_index=0), np.array([1, 2]), np.array([1, -1]))

    @given(st.integers(1, 5), st.integers(1, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_is_the_prefix_of_the_full_ranking(self, context, levels, k, seed):
        scores = np.random.default_rng(seed).integers(0, levels, size=400) / 4.0
        algorithm = _PresetScores(scores)
        full = algorithm.rank(context)
        np.testing.assert_array_equal(
            full.image_indices, np.argsort(-scores, kind="stable")
        )
        top = algorithm.rank(context, top_k=k)
        np.testing.assert_array_equal(top.image_indices, full.image_indices[:k])
        np.testing.assert_array_equal(top.scores, full.scores[:k])


class TestTopKRule:
    """One rule for a ranking size at every library entry point: ``None`` or
    an integer >= 1 (``operator.index``), else ``ValidationError``.  Without
    it ``top_k=-1`` returned N - 1 images, ``0`` an empty ranking and
    ``2.5`` was truncated to 2."""

    BAD = (-1, 0, 2.5, "3")

    @pytest.fixture(scope="class")
    def context(self):
        database = _gaussian_database()
        return FeedbackContext(database, Query(query_index=0), np.array([1, 2]), np.array([1, -1]))

    @pytest.mark.parametrize("top_k", BAD)
    def test_rank_and_the_default_rank_batch_reject(self, context, top_k):
        algorithm = _PresetScores(np.arange(400.0))
        with pytest.raises(ValidationError):
            algorithm.rank(context, top_k=top_k)
        with pytest.raises(ValidationError):
            algorithm.rank_batch([context], top_k=top_k)

    @pytest.mark.parametrize("top_k", BAD)
    def test_search_engine_and_euclidean_reject(self, context, top_k):
        with pytest.raises(ValidationError):
            SearchEngine(context.database).batch_search([context.query], top_k=top_k)
        with pytest.raises(ValidationError):
            SearchEngine(context.database).batch_search([], top_k=top_k)
        with pytest.raises(ValidationError):
            EuclideanFeedback().rank_batch([context], top_k=top_k)

    @pytest.mark.parametrize("top_k", [np.int64(7), 7])
    def test_integers_pass(self, context, top_k):
        assert len(_PresetScores(np.arange(400.0)).rank(context, top_k=top_k)) == 7
        result = SearchEngine(context.database).batch_search([context.query], top_k=top_k)[0]
        assert len(result) == 7


def _sorted_selection(scores, labeled, num_unlabeled):
    """``NearLabeledSelection.select`` as one stable sort of the whole pool."""
    mask = np.ones(scores.shape[0], dtype=bool)
    mask[labeled] = False
    candidates = np.flatnonzero(mask)
    budget = min(num_unlabeled, candidates.size)
    order = candidates[np.argsort(-scores[candidates], kind="stable")]
    positives = order[: budget - budget // 2]
    negatives = order[::-1][: budget // 2]
    return (
        np.concatenate([positives, negatives]),
        np.concatenate([np.ones(positives.size), -np.ones(negatives.size)]),
    )


@st.composite
def _selection_cases(draw):
    scores = _tie_heavy(draw, min_size=2)
    size = scores.shape[0]
    labeled = draw(st.lists(st.integers(0, size - 1), max_size=size - 1, unique=True))
    return scores, np.asarray(labeled, dtype=np.int64), draw(st.integers(2, size + 3))


class TestNearLabeledSelectionOrder:
    @given(_selection_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_sorted_formulation(self, case):
        scores, labeled, num_unlabeled = case
        indices, labels = NearLabeledSelection().select(scores, labeled, num_unlabeled)
        expected_indices, expected_labels = _sorted_selection(scores, labeled, num_unlabeled)
        assert indices.dtype == np.int64
        np.testing.assert_array_equal(indices, expected_indices)
        np.testing.assert_array_equal(labels, expected_labels)

    def test_negatives_break_ties_by_descending_index(self):
        scores = np.zeros(100)
        indices, labels = NearLabeledSelection().select(scores, np.array([0, 99]), 6)
        np.testing.assert_array_equal(indices, [1, 2, 3, 98, 97, 96])
        np.testing.assert_array_equal(labels, [1, 1, 1, -1, -1, -1])

    def test_one_candidate_pool(self):
        indices, labels = NearLabeledSelection().select(
            np.array([0.5, 0.1, 0.9]), np.array([0, 2]), 4
        )
        np.testing.assert_array_equal(indices, [1])
        np.testing.assert_array_equal(labels, [1.0])
        assert indices.dtype == np.int64
