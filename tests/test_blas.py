import logging
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import linalg as sparse_linalg

from tlradapt import _blas, bench, tlr
from tlradapt.bench import GridSpec, grid_search
from tlradapt.dataset import standardize_pair, synth_shift_pair
from tlradapt.kernels import KernelSpec
from tlradapt.mmd import mmd_vector
from tlradapt.tlr import TlrHyperparams, fit

BUILDS = dict(_blas._BUILDS)


def counts() -> dict[str, int]:
    return {package: getter() for package, (getter, _) in BUILDS.items()}


def every(threads: int) -> dict[str, int]:
    return dict.fromkeys(BUILDS, threads)


def force(threads: int) -> None:
    for _, setter in BUILDS.values():
        setter(threads)


@pytest.fixture
def two_threads():
    """Every bundled build at 2 threads for the test; the counts before it come back after."""
    if not BUILDS:
        pytest.skip("no bundled OpenBLAS build found")
    saved = counts()
    force(2)
    yield
    for package, (_, setter) in BUILDS.items():
        setter(saved[package])


def protocol_pair(n_per_class: int):
    # shaped like the webcam -> DSLR protocol: 10 classes of 800-d features
    return standardize_pair(
        synth_shift_pair(
            n_per_class, 800, classes=10, rotation_deg=60, translation=1, noise_std=5, seed=3
        )
    )


class TestSingleThreadBelowCap:
    def test_caps_then_restores(self, two_threads):
        with _blas.single_thread_below_cap(10):
            assert counts() == every(1)
        assert counts() == every(2)

    def test_restores_after_exception(self, two_threads):
        with pytest.raises(RuntimeError, match="inside"):
            with _blas.single_thread_below_cap(10):
                assert counts() == every(1)
                raise RuntimeError("inside")
        assert counts() == every(2)

    def test_leaves_counts_at_and_above_threshold(self, two_threads):
        for order in (_blas.SINGLE_THREAD_BELOW, _blas.SINGLE_THREAD_BELOW + 1):
            with _blas.single_thread_below_cap(order):
                assert counts() == every(2)
            assert counts() == every(2)

    def test_nested_blocks_restore_on_outer_exit(self, two_threads):
        with _blas.single_thread_below_cap(10):
            with _blas.single_thread_below_cap(20):
                assert counts() == every(1)
            assert counts() == every(1)
        assert counts() == every(2)

    def test_overlapping_threads_restore_once(self, two_threads):
        # a block entered inside another thread's must not read and later
        # restore the 1 the other set
        inside: list[list[int]] = []

        def work():
            for _ in range(50):
                with _blas.single_thread_below_cap(10):
                    inside.append(counts())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert inside == [every(1)] * 400
        assert counts() == every(2)

    def test_silent_no_op_without_builds(self, monkeypatch, caplog):
        before = counts()
        monkeypatch.setattr(_blas, "_BUILDS", {})
        with caplog.at_level(logging.DEBUG, logger="tlradapt._blas"):
            with _blas.single_thread_below_cap(10):
                assert counts() == before
        assert counts() == before
        assert caplog.records == []

    def test_readme_states_threshold(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"n1 + n2 is below {_blas.SINGLE_THREAD_BELOW} run" in readme.replace("\n", " ")

    def test_logs_order_and_counts(self, two_threads, caplog):
        with caplog.at_level(logging.DEBUG, logger="tlradapt._blas"):
            with _blas.single_thread_below_cap(10):
                pass
        assert [r.getMessage() for r in caplog.records] == [
            f"order 10: OpenBLAS threads {every(2)} -> 1",
            f"order 10: OpenBLAS threads restored to {every(2)}",
        ]


def test_grid_search_and_fit_solve_capped(two_threads, monkeypatch):
    seen = []

    def recording(original):
        def wrapper(*args, **kwargs):
            seen.append(counts())
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(bench, "_score_run", recording(bench._score_run))
    monkeypatch.setattr(tlr, "leading_basis", recording(tlr.leading_basis))
    monkeypatch.setattr(tlr, "lanczos_basis", recording(tlr.lanczos_basis))
    pair = protocol_pair(2)
    grid_search(pair, GridSpec(alphas=(1.0,), betas=(1.0,), ks=(5,)), runs=2, per_class=1)
    # n = 40: k = 5 takes the dense solve, k = 2 < n/16 the Lanczos one
    fit(pair, TlrHyperparams(alpha=1.0, beta=1.0, k=5))
    fit(pair, TlrHyperparams(alpha=1.0, beta=1.0, k=2))
    assert seen == [every(1)] * 4
    assert counts() == every(2)


@pytest.fixture
def arpack_counts(two_threads, monkeypatch):
    """The counts read as eigsh starts and at each operator product ARPACK asks for."""
    if not {"numpy", "scipy"} <= BUILDS.keys():
        pytest.skip("needs both bundled OpenBLAS builds")
    original = sparse_linalg.eigsh
    seen = []

    def recording(operator, **kwargs):
        def product(x):
            seen.append(counts())
            return operator.matmat(x)

        seen.append(counts())
        recorded = sparse_linalg.LinearOperator(
            operator.shape,
            matvec=lambda x: product(x.reshape(-1, 1)),
            matmat=product,
            dtype=operator.dtype,
        )
        return original(recorded, **kwargs)

    monkeypatch.setattr(sparse_linalg, "eigsh", recording)
    return seen


def lanczos_problem(n: int = 60, scale: float = 1.0):
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    K = (q * np.geomspace(1e-3, 1.0, n)) @ q.T * scale
    K = 0.5 * (K + K.T)
    return K, rng.uniform(0.5, 2.0, n), K @ mmd_vector(n // 2, n - n // 2)


class TestLanczosHoldsScipyBuild:
    """ARPACK runs on one scipy thread; numpy's products keep their count."""

    ARPACK = {"numpy": 2, "scipy": 1}

    def test_normal_return(self, arpack_counts):
        assert tlr.lanczos_basis(*lanczos_problem(), 3) is not None
        assert len(arpack_counts) > 1
        assert arpack_counts == [self.ARPACK] * len(arpack_counts)
        assert counts() == every(2)

    def test_fallback_return(self, arpack_counts):
        # K = I and constant m tie the top eigenvalues, so Lanczos returns None
        n = 40
        assert tlr.lanczos_basis(np.eye(n), np.full(n, 2.0), mmd_vector(20, 20), 2) is None
        assert arpack_counts and arpack_counts == [self.ARPACK] * len(arpack_counts)
        assert counts() == every(2)

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered in:RuntimeWarning")
    def test_overflow_inside_operator(self, arpack_counts):
        K, m, _ = lanczos_problem(scale=1e200)
        with pytest.raises(ValueError, match="overflow: a whitened operator product"):
            tlr.lanczos_basis(K, m, np.zeros(K.shape[0]), 3)
        assert arpack_counts and arpack_counts == [self.ARPACK] * len(arpack_counts)
        assert counts() == every(2)

    def test_nested_inside_cap(self, arpack_counts):
        with _blas.single_thread_below_cap(10):
            assert tlr.lanczos_basis(*lanczos_problem(), 3) is not None
            assert counts() == every(1)
        assert arpack_counts and arpack_counts == [every(1)] * len(arpack_counts)
        assert counts() == every(2)

    def test_logs_scipy_only(self, arpack_counts, caplog):
        with caplog.at_level(logging.DEBUG, logger="tlradapt._blas"):
            tlr.lanczos_basis(*lanczos_problem(), 3)
        assert [r.getMessage() for r in caplog.records] == [
            "Lanczos at order 60: OpenBLAS threads {'scipy': 2} -> 1",
            "Lanczos at order 60: OpenBLAS threads restored to {'scipy': 2}",
        ]

    def test_concurrent_fits(self, arpack_counts):
        # order 960 is above the cap and k = 5 < n/16, so each fit runs
        # Lanczos with numpy's build left alone
        pair = standardize_pair(synth_shift_pair(240, 5, classes=2, seed=11))
        hyper = TlrHyperparams(alpha=1e-3, beta=1e-2, k=5)
        assert pair.source.n + pair.target.n >= _blas.SINGLE_THREAD_BELOW
        expected, _, _ = fit(pair, hyper, KernelSpec("rbf"))
        serial = len(arpack_counts)
        models = []

        def work():
            for _ in range(2):
                models.append(fit(pair, hyper, KernelSpec("rbf"))[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(models) == 4
        assert all(np.array_equal(model.W, expected.W) for model in models)
        assert len(arpack_counts) > serial
        assert arpack_counts == [self.ARPACK] * len(arpack_counts)
        assert counts() == every(2)


class TestThreadInvariance:
    """Results do not change between 1 and 2 BLAS threads, switched in-process."""

    def test_grid_accuracies_equal(self, two_threads, monkeypatch):
        pair = protocol_pair(20)
        options = dict(kernel=KernelSpec(), runs=2, per_class=8, seed=5)
        assert 8 * 10 + pair.target.n < _blas.SINGLE_THREAD_BELOW
        capped = grid_search(pair, **options)
        monkeypatch.setattr(_blas, "SINGLE_THREAD_BELOW", 0)
        uncapped = grid_search(pair, **options)
        assert [r.accuracies for r in capped.records] == [r.accuracies for r in uncapped.records]

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_fit_close(self, two_threads, monkeypatch, kind):
        # W from 1 and 2 threads may differ by rounding: the dense solve
        # differed at n=400 by up to 2e-15 (linear) and 3e-12 (rbf) on
        # entries of about 0.25; the Lanczos solve that k = 20 < n/16 takes
        # gave bit-equal W
        pair = protocol_pair(20)
        hyper = TlrHyperparams(alpha=1e-3, beta=1e-2, k=20)
        assert pair.source.n + pair.target.n < _blas.SINGLE_THREAD_BELOW
        original = tlr.lanczos_basis
        solved = []

        def recording(*args):
            result = original(*args)
            solved.append(result is not None)
            return result

        monkeypatch.setattr(tlr, "lanczos_basis", recording)
        capped, _, _ = fit(pair, hyper, KernelSpec(kind))
        monkeypatch.setattr(_blas, "SINGLE_THREAD_BELOW", 0)
        uncapped, _, _ = fit(pair, hyper, KernelSpec(kind))
        assert solved == [True, True]
        assert np.allclose(capped.W, uncapped.W, rtol=0, atol=1e-10)
        assert np.allclose(capped.eigenvalues, uncapped.eigenvalues, rtol=1e-10, atol=0)
