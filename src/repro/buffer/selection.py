"""Buffer-selection baselines the paper compares against (Table I).

Five strategies, all operating on a shared :class:`~repro.buffer.buffer.RawBuffer`:

* :class:`RandomReservoir` — reservoir sampling [9]: each stream sample ends
  up in the buffer with equal probability.
* :class:`FIFO` — replace the oldest stored sample [22].
* :class:`SelectiveBP` — keep the samples the model is *least* confident on
  [40, 41]: a new sample evicts the most confident stored one if the new
  confidence is lower.
* :class:`KCenter` — greedy k-center in the encoder feature space [42, 43]:
  keep the subset minimizing the largest distance from any kept sample to
  its nearest center.
* :class:`GSSGreedy` — gradient-based sample selection [10, 44]: prefer
  samples whose loss gradients are dissimilar from those already stored,
  using last-layer gradient embeddings.

Each strategy consumes one pseudo-labeled segment at a time via
:meth:`SelectionStrategy.process_segment`.
"""

from __future__ import annotations

import abc

import numpy as np

from ..nn import functional as F
from ..nn.tensor import Tensor, no_grad
from ..obs.memory import default_ledger, track_object
from ..utils.batching import micro_batches
from ..utils.rng import to_rng
from .buffer import RawBuffer

__all__ = ["SelectionStrategy", "RandomReservoir", "FIFO", "SelectiveBP",
           "KCenter", "GSSGreedy", "Herding", "encode_features",
           "make_strategy", "STRATEGY_NAMES", "EXTRA_STRATEGY_NAMES"]


class SelectionStrategy(abc.ABC):
    """Interface: decide which raw samples to keep in a bounded buffer."""

    name: str = "base"

    @abc.abstractmethod
    def process_segment(self, buffer: RawBuffer, images: np.ndarray,
                        labels: np.ndarray, confidences: np.ndarray, *,
                        model=None,
                        rng: int | np.random.Generator | None = None,
                        features: np.ndarray | None = None) -> None:
        """Offer one segment of (pseudo-labeled) samples to the buffer.

        A segment with no rows leaves the buffer and the strategy's state
        untouched.

        Parameters
        ----------
        buffer:
            The raw buffer to maintain.
        images, labels, confidences:
            The segment's samples, their pseudo-labels, and the model's
            confidence in each pseudo-label.
        model:
            The deployed model (used by feature/gradient-based strategies).
        rng:
            Randomness source.
        features:
            ``model``'s encoder features of ``images``, one row per sample,
            as :func:`encode_features` computes them (the replay learner
            passes the ones it pseudo-labeled the segment from).  ``None``:
            a strategy that needs them encodes the segment itself.
            Strategies that use no features ignore them.
        """

    # -- persistence -------------------------------------------------------
    # Strategies with private cursors outside the buffer (FIFO slot
    # pointer, GSS gradient embeddings, herding candidate pools) override
    # these so a killed/resumed replay run is bit-identical to an
    # uninterrupted one.  Values must be numpy arrays (the checkpoint
    # format is one ``.npz``); stateless strategies inherit the empty dict.
    def state_dict(self) -> dict[str, np.ndarray]:
        """Private selection state needed for bit-exact resume."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict` output (missing keys keep defaults)."""


class RandomReservoir(SelectionStrategy):
    """Vitter's reservoir sampling: uniform retention over the whole stream."""

    name = "random"

    def process_segment(self, buffer, images, labels, confidences, *,
                        model=None, rng=None, features=None):
        rng = to_rng(rng)
        for x, y in zip(images, labels):
            if not buffer.is_full:
                buffer.add(x, int(y))
                continue
            j = int(rng.integers(0, buffer.total_seen + 1))
            if j < buffer.capacity:
                buffer.replace(j, x, int(y))
            else:
                buffer.total_seen += 1


class FIFO(SelectionStrategy):
    """First-in first-out replacement: always evict the oldest sample."""

    name = "fifo"

    def __init__(self) -> None:
        self._next = 0

    def process_segment(self, buffer, images, labels, confidences, *,
                        model=None, rng=None, features=None):
        for x, y in zip(images, labels):
            if not buffer.is_full:
                buffer.add(x, int(y))
            else:
                buffer.replace(self._next % buffer.capacity, x, int(y))
                self._next += 1

    def state_dict(self) -> dict[str, np.ndarray]:
        return {"next": np.asarray(self._next, dtype=np.int64)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "next" in state:
            self._next = int(state["next"])


class SelectiveBP(SelectionStrategy):
    """Store the lowest-confidence samples (hard examples) [40, 41]."""

    name = "selective_bp"

    def process_segment(self, buffer, images, labels, confidences, *,
                        model=None, rng=None, features=None):
        for x, y, conf in zip(images, labels, confidences):
            if not buffer.is_full:
                buffer.add(x, int(y), confidence=float(conf))
                continue
            stored = buffer.get_aux("confidence")
            worst = int(stored.argmax())
            if conf < stored[worst]:
                buffer.replace(worst, x, int(y), confidence=float(conf))


def encode_features(model, images: np.ndarray) -> np.ndarray:
    """Encoder features for a sample array, without recording the graph,
    in micro-batches.  No rows give a ``(0, feature_dim)`` array."""
    parts = micro_batches(images)
    if not parts:
        return np.empty((0, model.feature_dim), dtype=np.float32)
    with no_grad():
        return np.concatenate([model.features(Tensor(images[part])).data
                               for part in parts])


class KCenter(SelectionStrategy):
    """Greedy k-center coverage of the feature space [42, 43].

    On each segment, pools the buffer contents with the new samples, runs
    greedy farthest-point selection down to capacity, and keeps the chosen
    subset.  Only the buffered rows are encoded; the segment's features
    come from the caller when it has them.
    """

    name = "k_center"

    def process_segment(self, buffer, images, labels, confidences, *,
                        model=None, rng=None, features=None):
        if model is None:
            raise ValueError("KCenter requires the deployed model for features")
        if len(images) == 0:
            return
        rng = to_rng(rng)
        old_x, old_y = buffer.as_training_set()
        pool_x = np.concatenate([old_x, images]) if len(old_x) else np.asarray(images)
        pool_y = np.concatenate([old_y, labels]) if len(old_y) else np.asarray(labels)
        if len(pool_x) <= buffer.capacity:
            buffer.count = 0
            for x, y in zip(pool_x, pool_y):
                buffer.add(x, int(y))
            return

        if features is None:
            features = encode_features(model, images)
        feats = np.concatenate([encode_features(model, old_x), features])
        chosen = self._greedy_k_center(feats, buffer.capacity, rng)
        buffer.count = 0
        for i in chosen:
            buffer.add(pool_x[i], int(pool_y[i]))

    @staticmethod
    def _greedy_k_center(feats: np.ndarray, k: int,
                         rng: np.random.Generator) -> list[int]:
        """Farthest-point greedy selection of ``k`` indices."""
        n = len(feats)
        first = int(rng.integers(n))
        chosen = [first]
        dist = np.linalg.norm(feats - feats[first], axis=1)
        for _ in range(k - 1):
            nxt = int(dist.argmax())
            chosen.append(nxt)
            dist = np.minimum(dist, np.linalg.norm(feats - feats[nxt], axis=1))
        return chosen


class GSSGreedy(SelectionStrategy):
    """Gradient-based sample selection (greedy variant) [10].

    Uses last-layer gradient embeddings: the gradient of the cross-entropy
    w.r.t. the classifier weights for sample ``i`` is the outer product
    ``(p_i - onehot(y_i)) f_i^T``, so cosine similarity between two sample
    gradients factorizes as ``cos(e_i, e_j) * cos(f_i, f_j)`` — cheap to
    evaluate without materializing full gradients.
    """

    name = "gss_greedy"

    def __init__(self, candidate_subset: int = 16) -> None:
        self.candidate_subset = int(candidate_subset)
        self._errors: np.ndarray | None = None  # (capacity, C) e-vectors
        self._feats: np.ndarray | None = None   # (capacity, D) f-vectors

    @staticmethod
    def _grad_embedding(model, feats, labels):
        """Per-sample (error, feature) pair defining the last-layer gradient,
        from the samples' encoder features."""
        with no_grad():
            logits = model.classifier(Tensor(feats)).data
        probs = F.softmax(Tensor(logits), axis=1).data
        errors = probs.copy()
        errors[np.arange(len(labels)), np.asarray(labels, dtype=np.int64)] -= 1.0
        return errors, feats

    @staticmethod
    def _cos(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        na = np.linalg.norm(a, axis=-1, keepdims=True) + 1e-12
        nb = np.linalg.norm(b, axis=-1, keepdims=True) + 1e-12
        return (a / na) @ (b / nb).T

    def process_segment(self, buffer, images, labels, confidences, *,
                        model=None, rng=None, features=None):
        if model is None:
            raise ValueError("GSSGreedy requires the deployed model for gradients")
        if len(images) == 0:
            return
        rng = to_rng(rng)
        if self._errors is None:
            self._errors = np.zeros((buffer.capacity, model.num_classes), dtype=np.float32)
            self._feats = np.zeros((buffer.capacity, model.feature_dim), dtype=np.float32)
        if features is None:
            features = encode_features(model, images)
        errors, feats = self._grad_embedding(model, features, labels)

        for x, y, e, f in zip(images, labels, errors, feats):
            if not buffer.is_full:
                score = self._max_similarity(e, f, buffer, rng) if len(buffer) else 0.0
                slot = buffer.add(x, int(y), gss_score=score + 1.0)
                self._errors[slot] = e
                self._feats[slot] = f
                continue
            c_new = self._max_similarity(e, f, buffer, rng) + 1.0  # in [0, 2]
            scores = buffer.get_aux("gss_score")
            total = float(scores.sum())
            if total > 0:
                probs = scores / total
            else:  # e.g. buffer seeded externally without scores
                probs = np.full(len(scores), 1.0 / len(scores))
            victim = int(rng.choice(len(probs), p=probs))
            if rng.random() < scores[victim] / (scores[victim] + c_new + 1e-12):
                buffer.replace(victim, x, int(y), gss_score=c_new)
                self._errors[victim] = e
                self._feats[victim] = f

    def state_dict(self) -> dict[str, np.ndarray]:
        if self._errors is None:
            return {}
        return {"errors": self._errors, "feats": self._feats}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "errors" in state and "feats" in state:
            self._errors = np.asarray(state["errors"], dtype=np.float32)
            self._feats = np.asarray(state["feats"], dtype=np.float32)

    def _max_similarity(self, e, f, buffer, rng) -> float:
        """Max gradient-cosine similarity to a random buffered subset."""
        n = len(buffer)
        if n == 0:
            return 0.0
        subset = rng.choice(n, size=min(self.candidate_subset, n), replace=False)
        sim = (self._cos(e[None], self._errors[subset])
               * self._cos(f[None], self._feats[subset]))
        return float(sim.max())


class Herding(SelectionStrategy):
    """iCaRL-style herding selection [23] (beyond the paper's five baselines).

    Keeps, per class, the samples whose running feature mean best tracks
    the class's true feature mean: on each segment the buffer's samples of
    every class present are re-selected greedily so that the partial means
    of the kept set approach the class mean, with the per-class quota
    fixed at capacity / num_classes.

    The candidate pools (up to 4x quota raw images per class) carry one
    encoder feature row per sample.  A segment's rows are the features the
    caller passes (the replay learner's, from pseudo-labeling), or one
    batched encode of the segment when it passes none.  Cached rows stay
    valid while the model is the same object and its ``state_dict()`` is
    byte-equal to the one they were computed under; otherwise (the
    every-beta retrain, a restore) they are all dropped and the pools are
    re-encoded in that same batched call.  The encoder is per-sample
    (instance norm), so a cached row is bitwise the row a fresh encode of
    the whole pool would give.

    Each class's herd order is kept beside its rows and recomputed only
    when they change: new samples, the 4x quota prune, a weight change or
    :meth:`load_state_dict`.  Rows and orders are derived state: never
    checkpointed, and empty after :meth:`load_state_dict`.  Pools, rows and
    the weight snapshot are recorded under the ``selection.pool`` ledger
    account; the orders (at most quota indices per class) are not.
    """

    name = "herding"
    ledger_account = "selection.pool"

    def __init__(self) -> None:
        self._pool_x: dict[int, list[np.ndarray]] = {}
        # One feature row per pool entry, computed under the model state
        # below, and the herd order of those rows as (quota, order).
        self._pool_f: dict[int, np.ndarray] = {}
        self._order: dict[int, tuple[int, list[int]]] = {}
        self._feat_model = None
        self._feat_weights: tuple | None = None
        self._ledger_key = track_object(self.ledger_account, self, 0)

    @staticmethod
    def _herd(feats: np.ndarray, quota: int) -> list[int]:
        """Greedy herding order: argmin ||mean - running_mean||.

        Each step scores every still-available candidate at once.  A row's
        distance is the square root of its own dot product, which is bitwise
        ``np.linalg.norm`` of the row, and ``argmin`` over the available
        indices in ascending order gives exact ties to the lowest index.
        """
        mean = feats.mean(axis=0)
        chosen: list[int] = []
        running = np.zeros_like(mean)
        available = np.arange(len(feats))
        for k in range(min(quota, len(feats))):
            gap = mean - (running * k + feats[available]) / (k + 1)
            dist = np.sqrt(np.matmul(gap[:, None, :], gap[:, :, None]))
            best = int(available[dist.argmin()])
            chosen.append(best)
            available = available[available != best]
            running = (running * k + feats[best]) / (k + 1)
        return chosen

    def _herd_order(self, cls: int, quota: int) -> list[int]:
        """The herd order of class ``cls``'s rows, computed once for each
        version of the rows (the caches drop it when they change)."""
        cached = self._order.get(cls)
        if cached is None or cached[0] != quota:
            cached = self._order[cls] = (quota,
                                         self._herd(self._pool_f[cls], quota))
        return cached[1]

    @staticmethod
    def _weights(model) -> tuple:
        """Names, shapes, dtypes and bytes of ``model.state_dict()``."""
        state = model.state_dict()
        return (tuple((key, value.shape, value.dtype.str)
                      for key, value in state.items()),
                b"".join(value.tobytes() for value in state.values()))

    def _drop_features(self, model=None, weights: tuple | None = None) -> None:
        """Forget every feature row and herd order; new rows will be
        computed under ``model`` with ``weights``."""
        self._pool_f, self._order = {}, {}
        self._feat_model, self._feat_weights = model, weights

    def _extend_pools(self, model, images, labels, features) -> None:
        """Append the segment to the pools, each entry with a feature row
        under ``model``'s weights.

        Drops every cached row and order when the model state changed,
        then encodes, in one batched call, the pool entries left without a
        row (all of them after a drop or a restore, none otherwise) and,
        when ``features`` is ``None``, the segment.  Each touched class's
        rows are concatenated once, and a class that receives samples
        loses its order.
        """
        weights = self._weights(model)
        if model is not self._feat_model or weights != self._feat_weights:
            self._drop_features(model, weights)
        labels = np.asarray(labels, dtype=np.int64)
        stale = {cls: pool[len(self._pool_f.get(cls, ())):]
                 for cls, pool in sorted(self._pool_x.items())}
        batch = [x for rows in stale.values() for x in rows]
        if features is None:
            batch.extend(images)
        if batch:
            encoded = encode_features(model, np.stack(batch))
            if features is None:
                features = encoded[len(batch) - len(images):]
        offset = 0
        for cls in sorted(set(stale) | set(labels.tolist())):
            parts = [self._pool_f[cls]] if cls in self._pool_f else []
            n = len(stale.get(cls, ()))
            if n:
                parts.append(encoded[offset:offset + n])
                offset += n
            new = np.flatnonzero(labels == cls)
            if len(new):
                self._pool_x.setdefault(cls, []).extend(
                    np.array(images[i]) for i in new)
                parts.append(features[new])
                self._order.pop(cls, None)
            if n or len(new):
                self._pool_f[cls] = np.concatenate(parts)

    def _retrack(self) -> None:
        """Refresh the ledger entry after the pools or their rows changed.

        Counts the pooled images, their feature rows and the weight bytes
        the rows are keyed by.
        """
        default_ledger.record(
            self.ledger_account, self._ledger_key,
            sum(x.nbytes for pool in self._pool_x.values() for x in pool)
            + sum(f.nbytes for f in self._pool_f.values())
            + (len(self._feat_weights[1]) if self._feat_weights else 0))

    def process_segment(self, buffer, images, labels, confidences, *,
                        model=None, rng=None, features=None):
        if model is None:
            raise ValueError("Herding requires the deployed model for features")
        if len(images) == 0:
            return
        quota = max(1, buffer.capacity // model.num_classes)
        self._extend_pools(model, images, labels, features)
        # Bound the per-class candidate pool so memory stays O(buffer).
        for cls, pool in self._pool_x.items():
            if len(pool) > 4 * quota:
                keep = self._herd(self._pool_f[cls], 2 * quota)
                self._pool_x[cls] = [pool[i] for i in keep]
                self._pool_f[cls] = self._pool_f[cls][keep]
                self._order.pop(cls, None)
        self._retrack()
        # Re-select the buffer contents from the herded pools.
        buffer.count = 0
        for cls, pool in sorted(self._pool_x.items()):
            for i in self._herd_order(cls, quota):
                if buffer.is_full:
                    return
                buffer.add(pool[i], cls)

    def state_dict(self) -> dict[str, np.ndarray]:
        # One stacked array per non-empty class pool; the class id lives in
        # the key so the whole dict round-trips through a flat ``.npz``.
        return {f"pool.{cls}": np.stack(pool)
                for cls, pool in sorted(self._pool_x.items()) if pool}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        pools = {}
        for key, value in state.items():
            if key.startswith("pool."):
                cls = int(key[len("pool."):])
                pools[cls] = [np.array(sample) for sample in value]
        if pools:
            self._pool_x = pools
        self._drop_features()
        self._retrack()


STRATEGY_NAMES = ("random", "fifo", "selective_bp", "k_center", "gss_greedy")
EXTRA_STRATEGY_NAMES = ("herding",)


def make_strategy(name: str, **kwargs) -> SelectionStrategy:
    """Instantiate a selection baseline by its registry name."""
    factories = {
        "random": RandomReservoir,
        "fifo": FIFO,
        "selective_bp": SelectiveBP,
        "k_center": KCenter,
        "gss_greedy": GSSGreedy,
        "herding": Herding,
    }
    if name not in factories:
        raise KeyError(f"unknown strategy {name!r}; available: "
                       f"{STRATEGY_NAMES + EXTRA_STRATEGY_NAMES}")
    return factories[name](**kwargs)
