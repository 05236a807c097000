"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import Tensor


def _openblas_thread_control():
    """``(get, set)`` for the thread count of the OpenBLAS that numpy's
    ``matmul`` runs on, or ``None`` when no such library is loaded.

    The conv contraction is a plain ``np.matmul``, so the only intra-op
    threads left are BLAS's (one per core by default).
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.split()[-1].lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                return getter, setter
    return None


@pytest.fixture
def blas_threads():
    """Call with a thread count to run the BLAS on that many threads for
    the rest of the test; the previous count is restored afterwards.

    On a BLAS without a thread control the call does nothing, and a
    thread-count comparison degenerates to a repeat-run comparison.
    """
    control = _openblas_thread_control()
    saved = control[0]() if control else None

    def set_threads(n: int) -> None:
        if control:
            control[1](int(n))

    yield set_threads
    if control:
        control[1](saved)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued ``f`` w.r.t. ``x``.

    ``f`` takes no arguments and reads ``x`` (which is mutated in place and
    restored).
    """
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        f_plus = f()
        x[idx] = original - eps
        f_minus = f()
        x[idx] = original
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()
    return grad.astype(np.float32)


def assert_grad_matches(build_loss, value: np.ndarray, *, atol: float = 1e-2,
                        rtol: float = 5e-2, eps: float = 1e-3) -> None:
    """Check autodiff gradient of ``build_loss`` against finite differences.

    ``build_loss(tensor)`` must return a scalar Tensor; it is re-invoked with
    plain values during numerical differentiation.
    """
    leaf = Tensor(value.copy(), requires_grad=True)
    loss = build_loss(leaf)
    loss.backward()
    assert leaf.grad is not None, "no gradient reached the leaf"

    arr = value.copy()
    numeric = numerical_gradient(lambda: build_loss(Tensor(arr)).item(), arr,
                                 eps=eps)
    scale = max(np.abs(numeric).max(), 1.0)
    np.testing.assert_allclose(leaf.grad, numeric, atol=atol * scale, rtol=rtol)
