"""Factorized condensed-storage self-check (factorized leg of repro-check).

Run as ``python -m repro.buffer.factorized_selfcheck``.  Exercises the
decode-aware buffer end to end the way the learner uses it:

1. **Footprint exactness** — the f=2 buffer's ``memory_bytes`` (and the
   learner-facing ``buffer_nbytes``) must be exactly
   ``ceil(H/f) * ceil(W/f) / (H * W)`` of the f=1 image payload at equal
   IpC — ``1/f**2`` on the even micro geometries.
2. **Decode/transpose fidelity** — the decode is a fixed linear map and
   ``encode_grad`` its exact transpose (``<decode(p), g> == <p,
   encode_grad(g)>`` up to float32 roundoff), bit-deterministic across
   calls.
3. **Round-trip** — ``state_dict``/``load_state_dict`` restores the
   stored payload byte-for-byte and refuses a mismatched decode factor.
"""

from __future__ import annotations

import sys
import time

import numpy as np

FACTOR = 2


class SelfCheckFailure(AssertionError):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfCheckFailure(message)


def main() -> int:
    from .buffer import SyntheticBuffer
    from .factorized import FactorizedSyntheticBuffer

    t0 = time.perf_counter()
    shape = (3, 8, 8)
    classes, ipc = 4, 2

    print(f"[factorized-selfcheck] footprint: f={FACTOR} payload vs f=1 "
          f"at equal IpC, image {shape}")
    full = SyntheticBuffer(classes, ipc, shape)
    fact = FactorizedSyntheticBuffer(classes, ipc, shape, factor=FACTOR)
    c, h, w = shape
    sh, sw = -(-h // FACTOR), -(-w // FACTOR)
    _check(fact.storage_shape == (c, sh, sw),
           f"storage shape {fact.storage_shape} != {(c, sh, sw)}")
    _check(fact.memory_bytes * (h * w) == full.memory_bytes * (sh * sw),
           f"f={FACTOR} payload {fact.memory_bytes} is not exactly "
           f"{sh * sw}/{h * w} of the f=1 payload {full.memory_bytes}")

    print("[factorized-selfcheck] decode determinism + transpose fidelity")
    rng = np.random.default_rng(11)
    fact.init_random(rng)
    decoded = fact.decode(fact.images)
    _check(decoded.shape == (classes * ipc, *shape),
           f"decoded shape {decoded.shape}")
    _check(np.array_equal(decoded, fact.decode(fact.images)),
           "decode is not bit-deterministic across calls")
    g = rng.standard_normal(decoded.shape).astype(np.float32)
    lhs = float(np.sum(decoded.astype(np.float64) * g))
    rhs = float(np.sum(fact.images.astype(np.float64)
                       * fact.encode_grad(g).astype(np.float64)))
    _check(abs(lhs - rhs) <= 1e-3 * max(1.0, abs(lhs)),
           f"encode_grad is not the decode transpose: <Up,g>={lhs} vs "
           f"<p,U^Tg>={rhs}")

    print("[factorized-selfcheck] state_dict round-trip + factor guard")
    state = fact.state_dict()
    other = FactorizedSyntheticBuffer(classes, ipc, shape, factor=FACTOR)
    other.load_state_dict(state)
    _check(other.images.tobytes() == fact.images.tobytes(),
           "state_dict round-trip is not byte-for-byte")
    try:
        SyntheticBuffer(classes, ipc, (c, sh, sw)).load_state_dict(state)
    except Exception:
        pass
    else:  # a plain buffer must not silently swallow factorized payloads
        raise SelfCheckFailure("decode-factor mismatch was not rejected")

    print(f"[factorized-selfcheck] OK: factorized storage exact, "
          f"decode-transparent, and round-trippable "
          f"({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfCheckFailure as exc:
        print(f"[factorized-selfcheck] FAILED: {exc}")
        sys.exit(1)
