"""Synthetic image-classification dataset generators.

The paper evaluates on iCub World 1.0, CORe50, CIFAR-100, and ImageNet-10.
None of those are downloadable in this offline environment, so this module
builds parameterized synthetic analogues that preserve the statistical
properties the algorithms actually interact with:

* **class structure** — each class has a smooth prototype image; samples are
  noisy, jittered (shifted/flipped) views of it, so a ConvNet can learn the
  task but single raw samples are weak class summaries (the premise of
  condensation);
* **confusable classes** — classes are organized into groups sharing a
  common anchor pattern (e.g. cat/dog/deer-like visual similarity), which is
  what makes pseudo-label errors land on *similar* classes (Fig. 2) and
  motivates the feature-discrimination loss;
* **sessions/environments** — CORe50-style datasets add per-session
  background fields, so the stream distribution shifts over time;
* **pose variation** — per-sample integer translations and horizontal flips
  emulate multi-view object recordings.

All arrays are float32 NCHW, roughly zero-mean/unit-std.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..utils.rng import to_rng

__all__ = ["DatasetSpec", "SyntheticImageDataset", "make_dataset", "gaussian_blur"]


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters controlling synthetic dataset generation.

    Attributes
    ----------
    name:
        Identifier (used by the registry and experiment reports).
    num_classes:
        Number of object classes.
    image_size:
        Square spatial resolution; must suit the ConvNet depth used.
    channels:
        Image channels (3 for all paper datasets).
    train_per_class / test_per_class:
        Samples generated per class for the stream pool and the test set.
    num_groups:
        Number of confusable-class groups (anchors); classes are assigned
        round-robin.  More groups -> easier discrimination.
    num_sessions:
        Distinct recording environments (CORe50 has 11); 1 disables
        session shift.
    class_separation:
        Scale of the class-specific detail field relative to the shared
        group anchor.  Smaller values make within-group classes harder to
        tell apart.
    session_strength:
        Scale of the per-session background field.
    noise_std:
        Per-pixel white-noise standard deviation.
    jitter:
        Maximum absolute integer translation applied per sample.
    flip:
        Whether samples are randomly mirrored.
    smoothness:
        Gaussian-blur sigma used when drawing prototype/anchor fields.
    """

    name: str
    num_classes: int
    image_size: int
    channels: int = 3
    train_per_class: int = 100
    test_per_class: int = 30
    num_groups: int = 3
    num_sessions: int = 1
    class_separation: float = 0.55
    session_strength: float = 0.35
    noise_std: float = 0.8
    jitter: int = 2
    flip: bool = True
    smoothness: float = 1.5

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.num_groups < 1 or self.num_groups > self.num_classes:
            raise ValueError("num_groups must be in [1, num_classes]")
        if self.image_size < 4:
            raise ValueError("image_size too small")
        if self.num_sessions < 1:
            raise ValueError("num_sessions must be >= 1")


@dataclass
class SyntheticImageDataset:
    """A generated dataset with train/test splits and stream metadata.

    ``train_sessions`` records which session each training sample was
    "recorded" in; stream builders use it to produce session-ordered
    non-i.i.d. streams.  ``group_of`` maps class -> confusable group id.
    """

    spec: DatasetSpec
    x_train: np.ndarray
    y_train: np.ndarray
    train_sessions: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    group_of: np.ndarray
    prototypes: np.ndarray = field(repr=False, default=None)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    @property
    def image_size(self) -> int:
        return self.spec.image_size

    @property
    def channels(self) -> int:
        return self.spec.channels

    @property
    def num_train(self) -> int:
        return len(self.y_train)

    def image_shape(self) -> tuple[int, int, int]:
        return (self.channels, self.image_size, self.image_size)

    def pretrain_subset(self, fraction: float,
                        rng: int | np.random.Generator | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Class-balanced labeled subset used to pre-train before deployment.

        The paper pre-trains on 1% of labels (10% for CIFAR-100); at least
        one sample per class is always included.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = to_rng(rng)
        per_class = max(1, int(round(fraction * self.spec.train_per_class)))
        xs, ys = [], []
        for c in range(self.num_classes):
            idx = np.flatnonzero(self.y_train == c)
            chosen = rng.choice(idx, size=min(per_class, idx.size), replace=False)
            xs.append(self.x_train[chosen])
            ys.append(self.y_train[chosen])
        return np.concatenate(xs), np.concatenate(ys)

    def confusable_classes(self, c: int) -> np.ndarray:
        """Classes sharing class ``c``'s anchor group (excluding ``c``)."""
        same = np.flatnonzero(self.group_of == self.group_of[c])
        return same[same != c]


def _blur_last_axis(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Correlate the last axis of ``x`` with the odd symmetric ``weights``.

    The edge is extended by mirroring (``d c b a | a b c d | d c b a``);
    each output is the centre tap times its weight, then each mirrored pair
    of taps, summed first and then weighted, from the outermost inward.
    """
    radius = len(weights) // 2
    n = x.shape[-1]
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(radius, radius)],
                    mode="symmetric")
    acc = padded[..., radius:radius + n] * weights[radius]
    for j in range(radius, 0, -1):
        acc += ((padded[..., radius - j:radius - j + n]
                 + padded[..., radius + j:radius + j + n]) * weights[radius + j])
    return acc


def gaussian_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of float64 ``x`` along its last two axes.

    Bit for bit ``scipy.ndimage.gaussian_filter(f, sigma)`` of every
    trailing 2-D field ``f`` (its defaults: truncate 4, ``reflect`` edges):
    the same normalised float64 weights, the same edge extension and the
    same summation order, rows before columns.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    weights = weights / weights.sum()
    x = _blur_last_axis(x.swapaxes(-1, -2), weights).swapaxes(-1, -2)
    return _blur_last_axis(x, weights)


def _smooth_field(rng: np.random.Generator, channels: int, size: int,
                  sigma: float) -> np.ndarray:
    """Draw a smooth zero-mean unit-std random field of shape (C, H, W)."""
    field_ = rng.standard_normal((channels, size, size))
    if sigma > 0:
        field_ = gaussian_blur(field_, sigma)
    std = field_.std()
    if std > 0:
        field_ = field_ / std
    return field_.astype(np.float32)


def _jitter_and_flip(image: np.ndarray, rng: np.random.Generator,
                     jitter: int, flip: bool) -> np.ndarray:
    """Apply a random integer translation (wrap-around) and mirror."""
    out = image
    if jitter > 0:
        dx, dy = rng.integers(-jitter, jitter + 1, size=2)
        out = np.roll(out, (int(dx), int(dy)), axis=(1, 2))
    if flip and rng.random() < 0.5:
        out = out[:, :, ::-1]
    return out


def make_dataset(spec: DatasetSpec,
                 seed: int | np.random.Generator | None = 0) -> SyntheticImageDataset:
    """Generate a :class:`SyntheticImageDataset` from ``spec``.

    Deterministic given the seed: the same spec+seed always produces
    identical arrays.
    """
    rng = to_rng(seed)
    c, s = spec.channels, spec.image_size

    group_of = np.arange(spec.num_classes) % spec.num_groups
    anchors = np.stack([_smooth_field(rng, c, s, spec.smoothness)
                        for _ in range(spec.num_groups)])
    details = np.stack([_smooth_field(rng, c, s, spec.smoothness)
                        for _ in range(spec.num_classes)])
    prototypes = anchors[group_of] + spec.class_separation * details
    sessions = np.stack([_smooth_field(rng, c, s, spec.smoothness * 2)
                         for _ in range(spec.num_sessions)])

    def synthesize(per_class: int, assign_sessions: bool
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        total = spec.num_classes * per_class
        xs = np.empty((total, c, s, s), dtype=np.float32)
        ys = np.empty(total, dtype=np.int64)
        sess = np.empty(total, dtype=np.int64)
        i = 0
        for cls in range(spec.num_classes):
            for k in range(per_class):
                session_id = (k * spec.num_sessions // per_class
                              if assign_sessions else int(rng.integers(spec.num_sessions)))
                base = _jitter_and_flip(prototypes[cls], rng, spec.jitter, spec.flip)
                noise = rng.standard_normal((c, s, s)).astype(np.float32) * spec.noise_std
                xs[i] = base + spec.session_strength * sessions[session_id] + noise
                ys[i] = cls
                sess[i] = session_id
                i += 1
        return xs, ys, sess

    x_train, y_train, train_sessions = synthesize(spec.train_per_class, assign_sessions=True)
    x_test, y_test, _ = synthesize(spec.test_per_class, assign_sessions=False)

    # Standardize with train statistics (as image pipelines do).
    mean = x_train.mean()
    std = x_train.std() + 1e-8
    x_train = (x_train - mean) / std
    x_test = (x_test - mean) / std

    return SyntheticImageDataset(
        spec=spec,
        x_train=x_train, y_train=y_train, train_sessions=train_sessions,
        x_test=x_test, y_test=y_test,
        group_of=group_of, prototypes=prototypes,
    )
