import ast
import ctypes
import logging
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import linalg as sparse_linalg

import tlradapt
from tlradapt import _blas, tlr
from tlradapt.bench import GridSpec, grid_search
from tlradapt.classify import knn1_predict
from tlradapt.dataset import standardize_pair, synth_shift_pair
from tlradapt.kernels import KernelSpec
from tlradapt.mmd import mmd_vector
from tlradapt.tlr import TlrHyperparams, fit


def _numpy_build():
    """(getter, setter) of numpy's bundled OpenBLAS, which _blas leaves alone; None if absent."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            library = ctypes.CDLL(str(path))
            getter = library.scipy_openblas_get_num_threads64_
            setter = library.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return getter, setter
    return None


BUILDS = {
    package: build
    for package, build in (("numpy", _numpy_build()), ("scipy", _blas._BUILD))
    if build is not None
}


def counts() -> dict[str, int]:
    return {package: getter() for package, (getter, _) in BUILDS.items()}


def every(threads: int) -> dict[str, int]:
    return dict.fromkeys(BUILDS, threads)


def force(threads: int) -> None:
    for _, setter in BUILDS.values():
        setter(threads)


# both builds at 2 threads, scipy's held at 1: inside each capped eigh and ARPACK
HELD = {"numpy": 2, "scipy": 1}


@pytest.fixture
def two_threads():
    """Both bundled builds at 2 threads for the test; the counts before it come back after."""
    if BUILDS.keys() != {"numpy", "scipy"}:
        pytest.skip("needs both bundled OpenBLAS builds")
    saved = counts()
    force(2)
    yield
    for package, (_, setter) in BUILDS.items():
        setter(saved[package])


@pytest.fixture
def eigh_counts(monkeypatch):
    """(order, counts) read inside every scipy.linalg.eigh call that _blas.eigh makes."""
    original = scipy.linalg.eigh
    seen = []

    def recording(a, *args, **kwargs):
        seen.append((a.shape[0], counts()))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording)
    return seen


def small_matrix(order: int = 10) -> np.ndarray:
    return np.diag(np.arange(1.0, order + 1))


def protocol_pair(n_per_class: int):
    # shaped like the webcam -> DSLR protocol: 10 classes of 800-d features
    return standardize_pair(
        synth_shift_pair(
            n_per_class, 800, classes=10, rotation_deg=60, translation=1, noise_std=5, seed=3
        )
    )


class TestSingleThreadBelowCap:
    """_blas.eigh holds scipy's build at 1 thread below the cap; numpy's is never held."""

    def test_caps_then_restores(self, two_threads, eigh_counts):
        values, _ = _blas.eigh(small_matrix())
        assert np.array_equal(values, np.arange(1.0, 11))
        assert eigh_counts == [(10, HELD)]
        assert counts() == every(2)

    def test_restores_after_exception(self, two_threads, monkeypatch):
        def failing(a, *args, **kwargs):
            assert counts() == HELD
            raise RuntimeError("inside")

        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        with pytest.raises(RuntimeError, match="inside"):
            _blas.eigh(small_matrix())
        assert counts() == every(2)

    def test_leaves_counts_at_and_above_threshold(self, two_threads, monkeypatch):
        seen = []
        monkeypatch.setattr(scipy.linalg, "eigh", lambda a: seen.append(counts()))
        for order in (_blas.SINGLE_THREAD_BELOW, _blas.SINGLE_THREAD_BELOW + 1):
            _blas.eigh(np.broadcast_to(0.0, (order, order)))
        assert seen == [every(2)] * 2
        assert counts() == every(2)

    def test_nested_blocks_restore_on_outer_exit(self, two_threads, eigh_counts):
        with _blas.single_thread("outer"):
            _blas.eigh(small_matrix())
            assert counts() == HELD
        assert eigh_counts == [(10, HELD)]
        assert counts() == every(2)

    def test_overlapping_threads_restore_once(self, two_threads, eigh_counts):
        # a block entered inside another thread's must not read and later
        # restore the 1 the other set
        def work():
            for _ in range(50):
                _blas.eigh(small_matrix())

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
        assert eigh_counts == [(10, HELD)] * 400
        assert counts() == every(2)

    def test_silent_no_op_without_builds(self, monkeypatch, caplog):
        before = counts()
        monkeypatch.setattr(_blas, "_BUILD", None)
        with caplog.at_level(logging.DEBUG, logger="tlradapt._blas"):
            values, _ = _blas.eigh(small_matrix())
            with _blas.single_thread("Lanczos"):
                assert counts() == before
        assert np.array_equal(values, np.arange(1.0, 11))
        assert counts() == before
        assert caplog.records == []

    def test_readme_states_threshold(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        stated = f"eigensolves of order below {_blas.SINGLE_THREAD_BELOW} run"
        assert stated in readme.replace("\n", " ")

    def test_logs_order_and_counts(self, two_threads, caplog):
        with caplog.at_level(logging.DEBUG, logger="tlradapt._blas"):
            _blas.eigh(small_matrix())
        assert [r.getMessage() for r in caplog.records] == [
            "eigh at order 10: OpenBLAS threads 2 -> 1",
            "eigh at order 10: OpenBLAS threads restored to 2",
        ]


def test_grid_search_and_fit_solve_capped(two_threads, eigh_counts):
    pair = protocol_pair(2)
    grid_search(pair, GridSpec(alphas=(1.0,), betas=(1.0,), ks=(5,)), runs=2, per_class=1)
    # d = 800: each grid run takes eigh(K) of order 30 and solves at its rank,
    # 29; the fit, with k = 5 >= n/16, solves densely at order 40
    fit(pair, TlrHyperparams(alpha=1.0, beta=1.0, k=5))
    assert [order for order, _ in eigh_counts] == [30, 29, 30, 29, 40]
    assert all(inside == HELD for _, inside in eigh_counts)
    assert counts() == every(2)


def test_linear_grid_caps_on_the_factor_order(two_threads, eigh_counts):
    # d = 400 features below the cap and n1 + n2 at or above it: every solve
    # is of order at most d, so each runs on one scipy thread
    per_class = math.ceil(_blas.SINGLE_THREAD_BELOW / 8)
    pair = standardize_pair(synth_shift_pair(per_class, 400, classes=4, translation=1, seed=4))
    assert pair.source.n + pair.target.n >= _blas.SINGLE_THREAD_BELOW
    grid_search(pair, GridSpec(alphas=(1.0,), betas=(1.0, 1e-2), ks=(5,)), kernel=KernelSpec())
    assert [order for order, _ in eigh_counts] == [400] * 3
    assert all(inside == HELD for _, inside in eigh_counts)
    assert counts() == every(2)


def outside_blas(solver: str, *names: str) -> list[str]:
    """file:line of each use, outside _blas.py, of scipy's solver or of the given _blas names.

    A use is an attribute named solver, an import of solver (or *) from scipy,
    or an import, call or attribute of any of names.
    """
    package = Path(tlradapt.__file__).parent
    assert package.joinpath("_blas.py").is_file()

    def uses(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            scipy_names = (solver, "*") if (node.module or "").startswith("scipy") else ()
            return any(alias.name in scipy_names or alias.name in names for alias in node.names)
        if isinstance(node, ast.Attribute):
            return node.attr == solver or node.attr in names
        return isinstance(node, ast.Name) and node.id in names

    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "_blas.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if uses(node)
    ]


def test_only_blas_calls_scipy_eigh():
    """Every eigh in the package goes through _blas.eigh, which applies the thread rule."""
    assert outside_blas("eigh") == []


def test_only_blas_calls_eigsh_or_holds_threads():
    """ARPACK goes through _blas.eigsh, and only _blas holds scipy's thread count."""
    assert outside_blas("eigsh", "single_thread") == []


@pytest.fixture
def arpack_counts(two_threads, monkeypatch):
    """The counts read as eigsh starts and at each operator product ARPACK asks for."""
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
    """ARPACK runs on one scipy thread at any order; numpy's products keep their count."""

    def test_normal_return(self, arpack_counts):
        assert tlr.lanczos_basis(*lanczos_problem(), 3) is not None
        assert len(arpack_counts) > 1
        assert arpack_counts == [HELD] * len(arpack_counts)
        assert counts() == every(2)

    def test_fallback_return(self, arpack_counts):
        # K = I and constant m tie the top eigenvalues, so Lanczos returns None
        n = 40
        assert tlr.lanczos_basis(np.eye(n), np.full(n, 2.0), mmd_vector(20, 20), 2) is None
        assert arpack_counts and arpack_counts == [HELD] * len(arpack_counts)
        assert counts() == every(2)

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered in:RuntimeWarning")
    def test_overflow_inside_operator(self, arpack_counts):
        K, m, _ = lanczos_problem(scale=1e200)
        with pytest.raises(ValueError, match="overflow: a whitened operator product"):
            tlr.lanczos_basis(K, m, np.zeros(K.shape[0]), 3)
        assert arpack_counts and arpack_counts == [HELD] * len(arpack_counts)
        assert counts() == every(2)

    def test_nested_inside_cap(self, arpack_counts):
        with _blas.single_thread("outer"):
            assert tlr.lanczos_basis(*lanczos_problem(), 3) is not None
            assert counts() == HELD
        assert arpack_counts and arpack_counts == [HELD] * len(arpack_counts)
        assert counts() == every(2)

    def test_logs_scipy_only(self, arpack_counts, caplog):
        with caplog.at_level(logging.DEBUG, logger="tlradapt._blas"):
            tlr.lanczos_basis(*lanczos_problem(), 3)
        assert [r.getMessage() for r in caplog.records] == [
            "Lanczos at order 60: OpenBLAS threads 2 -> 1",
            "Lanczos at order 60: OpenBLAS threads restored to 2",
        ]

    def test_concurrent_fits(self, arpack_counts):
        # order 960 and k = 5 < n/16: each fit runs Lanczos
        pair = standardize_pair(synth_shift_pair(240, 5, classes=2, seed=11))
        hyper = TlrHyperparams(alpha=1e-3, beta=1e-2, k=5)
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
        assert arpack_counts == [HELD] * len(arpack_counts)
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

    def test_dense_fit_above_cap_close(self, two_threads, eigh_counts):
        # order 1304 is at or above the cap, so scipy's eigh keeps 2 threads
        # unless held; k = 100 >= n/16 solves densely. Over seeds 0-11 of this
        # shape, W differed by 1.5e-10 to 1.1e-9 of max |W|, eigenvalues by at
        # most 6.4e-10 relative, and no prediction changed
        pair = standardize_pair(
            synth_shift_pair(163, 20, 4, rotation_deg=60, translation=1, noise_std=1.5, seed=0)
        )
        n = pair.source.n + pair.target.n
        hyper = TlrHyperparams(alpha=1e-3, beta=1e-2, k=100)
        assert n >= _blas.SINGLE_THREAD_BELOW and hyper.k >= tlr._LANCZOS_SHARE * n
        free, source_free, target_free = fit(pair, hyper, KernelSpec("rbf"))
        with _blas.single_thread("dense fit"):
            held, source_held, target_held = fit(pair, hyper, KernelSpec("rbf"))
        assert eigh_counts == [(n, every(2)), (n, HELD)]
        labels = pair.source.labels
        assert np.array_equal(
            knn1_predict(source_free, labels, target_free).predicted,
            knn1_predict(source_held, labels, target_held).predicted,
        )
        assert np.max(np.abs(held.W - free.W)) <= 1e-8 * np.max(np.abs(free.W))
        assert np.allclose(held.eigenvalues, free.eigenvalues, rtol=1e-8, atol=0)
