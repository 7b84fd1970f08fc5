import logging
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from tlradapt import _blas, bench, tlr
from tlradapt.bench import GridSpec, grid_search
from tlradapt.dataset import standardize_pair, synth_shift_pair
from tlradapt.kernels import KernelSpec
from tlradapt.tlr import TlrHyperparams, fit

BUILDS = list(_blas._BUILDS)


def counts() -> list[int]:
    return [getter() for _, getter, _ in BUILDS]


def force(threads: int) -> None:
    for _, _, setter in BUILDS:
        setter(threads)


@pytest.fixture
def two_threads():
    """Every bundled build at 2 threads for the test; the counts before it come back after."""
    if not BUILDS:
        pytest.skip("no bundled OpenBLAS build found")
    saved = counts()
    force(2)
    yield
    for (_, _, setter), count in zip(BUILDS, saved):
        setter(count)


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
            assert counts() == [1] * len(BUILDS)
        assert counts() == [2] * len(BUILDS)

    def test_restores_after_exception(self, two_threads):
        with pytest.raises(RuntimeError, match="inside"):
            with _blas.single_thread_below_cap(10):
                assert counts() == [1] * len(BUILDS)
                raise RuntimeError("inside")
        assert counts() == [2] * len(BUILDS)

    def test_leaves_counts_at_and_above_threshold(self, two_threads):
        for order in (_blas.SINGLE_THREAD_BELOW, _blas.SINGLE_THREAD_BELOW + 1):
            with _blas.single_thread_below_cap(order):
                assert counts() == [2] * len(BUILDS)
            assert counts() == [2] * len(BUILDS)

    def test_nested_blocks_restore_on_outer_exit(self, two_threads):
        with _blas.single_thread_below_cap(10):
            with _blas.single_thread_below_cap(20):
                assert counts() == [1] * len(BUILDS)
            assert counts() == [1] * len(BUILDS)
        assert counts() == [2] * len(BUILDS)

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
        assert inside == [[1] * len(BUILDS)] * 400
        assert counts() == [2] * len(BUILDS)

    def test_silent_no_op_without_builds(self, monkeypatch, caplog):
        before = counts()
        monkeypatch.setattr(_blas, "_BUILDS", [])
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
            f"order 10: OpenBLAS threads {[2] * len(BUILDS)} -> 1",
            f"order 10: OpenBLAS threads restored to {[2] * len(BUILDS)}",
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
    assert seen == [[1] * len(BUILDS)] * 4
    assert counts() == [2] * len(BUILDS)


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
