"""Fused finite-difference engine self-check (fd leg of repro-check).

Run as ``python -m repro.condensation.fd_selfcheck``.  Exercises the
fused ±ε evaluator end to end the way the Eq. 7 matcher uses it:

1. **Bit-identity** — on the learner-test and micro-profile ConvNet
   shapes, the fused (lane-grouped) evaluation must return byte-identical
   input gradients to the sequential two-pass path, eval after eval.
2. **Counter parity** — exactly one in-situ verification per
   (architecture, shape) signature, every eval a fused dispatch, zero
   serial fallbacks and zero verification failures.
3. **Segment equivalence** — a micro-profile condense segment run fused
   vs. unfused produces byte-identical synthetic pixels, with every
   iteration's FD evaluation fused (one pass saved per iteration).
"""

from __future__ import annotations

import sys
import time

import numpy as np

#: (input shape, classes, width, depth, batch) — the learner-test ConvNet
#: and the micro-profile learner shapes.
SHAPES = (
    ((1, 8, 8), 3, 4, 2, 6),
    ((3, 8, 8), 4, 8, 2, 8),
)


class SelfCheckFailure(AssertionError):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfCheckFailure(message)


def main() -> int:
    from ..buffer.buffer import SyntheticBuffer
    from ..nn import kernels
    from ..nn.convnet import ConvNet
    from . import matching
    from .one_step import OneStepMatcher

    t0 = time.perf_counter()
    saved_fuse = kernels.fd_fuse_enabled()
    saved_fast = kernels.fast_kernels_enabled()
    kernels.set_fast_kernels(True)
    try:
        evals = 4
        for shape, classes, width, depth, n in SHAPES:
            print(f"[fd-selfcheck] bit-identity: ConvNet {shape} width "
                  f"{width} depth {depth}, {evals} evals")
            rng = np.random.default_rng(1)
            model = ConvNet(shape[0], classes, shape[-1], width=width,
                            depth=depth, rng=np.random.default_rng(8))
            x = rng.standard_normal((n, *shape)).astype(np.float32)
            y = rng.integers(0, classes, size=n).astype(np.int64)
            direction = [rng.standard_normal(p.data.shape).astype(np.float32)
                         for p in model.parameters()]

            kernels.set_fd_fuse(False)
            reference = matching.finite_difference_matching_grad(
                model, x, y, direction)

            kernels.set_fd_fuse(True)
            matching.clear_fd_fuse_verdicts()
            matching.reset_fd_fuse_stats()
            for i in range(evals):
                got = matching.finite_difference_matching_grad(
                    model, x, y, direction)
                _check(np.array_equal(reference, got),
                       f"fused FD gradient diverged from the sequential "
                       f"bytes on eval {i} for shape {shape}")
            counts = matching.fd_fuse_stats()
            _check(counts["verifications"] == 1,
                   f"expected exactly 1 verification, saw {counts}")
            _check(counts["verification_failures"] == 0,
                   f"in-situ verification failed: {counts}")
            _check(counts["fused_dispatches"] == evals,
                   f"every eval must dispatch fused: {counts}")
            _check(counts["serial_fallbacks"] == 0,
                   f"unexpected serial fallback: {counts}")

        iterations = 6
        print(f"[fd-selfcheck] segment equivalence: micro-profile segment, "
              f"{iterations} iterations, fused vs. unfused")

        def run_segment(fuse: bool):
            kernels.set_fd_fuse(fuse)
            buf = SyntheticBuffer(4, 2, (3, 8, 8))
            buf.images[:] = np.random.default_rng(3).standard_normal(
                buf.images.shape).astype(np.float32)
            real_x = np.random.default_rng(4).standard_normal(
                (32, 3, 8, 8)).astype(np.float32)
            real_y = np.random.default_rng(5).integers(0, 4, 32)
            matcher = OneStepMatcher(iterations=iterations, alpha=0.1)
            deployed = ConvNet(3, 4, 8, width=8, depth=2,
                               rng=np.random.default_rng(6))
            factory = lambda r: ConvNet(3, 4, 8, width=8, depth=2, rng=r)
            stats = matcher.condense(
                buf, [0, 1, 2, 3], real_x, real_y, None,
                model_factory=factory, rng=np.random.default_rng(7),
                deployed_model=deployed)
            return buf.images.copy(), stats

        matching.clear_fd_fuse_verdicts()
        matching.reset_fd_fuse_stats()
        fused_img, fused_stats = run_segment(True)
        counts = matching.fd_fuse_stats()
        unfused_img, unfused_stats = run_segment(False)
        _check(np.array_equal(fused_img, unfused_img),
               "condensed pixels diverge between fused and unfused runs")
        _check(fused_stats.extra.get("fused") == iterations,
               f"every iteration should evaluate fused: "
               f"{fused_stats.extra}")
        _check(counts["verifications"] == 1
               and counts["fused_dispatches"] == iterations
               and counts["serial_fallbacks"] == 0,
               f"segment counter parity violated: {counts}")
        _check(fused_stats.forward_backward_passes
               == unfused_stats.forward_backward_passes - iterations,
               "fusing must save exactly one pass per iteration "
               f"({fused_stats.forward_backward_passes} vs "
               f"{unfused_stats.forward_backward_passes})")
    finally:
        kernels.set_fd_fuse(saved_fuse)
        kernels.set_fast_kernels(saved_fast)
        matching.clear_fd_fuse_verdicts()
        matching.reset_fd_fuse_stats()

    print(f"[fd-selfcheck] OK: fused engine bit-identical with clean "
          f"counters ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfCheckFailure as exc:
        print(f"[fd-selfcheck] FAILED: {exc}")
        sys.exit(1)
