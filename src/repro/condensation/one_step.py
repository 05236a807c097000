"""DECO's efficient on-device condensation (§III-C and §III-D).

One-step gradient matching: instead of DC's bilevel loop over a training
trajectory, each iteration draws a *freshly randomized* model and matches
the first-epoch gradients of the synthetic and real batches (Eq. 5).  The
gradient of the distance with respect to the synthetic pixels is obtained
with the five-pass finite-difference scheme of Eq. (7), and the feature
discrimination loss of Eq. (8) — computed with the *deployed* model's
encoder — is added with weight ``alpha`` (Eq. 9).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import obs
from ..buffer.buffer import SyntheticBuffer
from ..nn.layers import Module, frozen_parameters
from ..nn.losses import feature_discrimination_loss
from ..nn.optim import SGD
from ..nn.tensor import Tensor, no_grad
from ..utils.batching import micro_batches
from .base import CondensationMethod, CondensationStats, ModelFactory
from .matching import (distance_and_grad_wrt_gsyn,
                       finite_difference_matching_grad, gradient_cosine,
                       parameter_gradients)

__all__ = ["OneStepMatcher"]


class OneStepMatcher(CondensationMethod):
    """DECO condensation: one-step FD gradient matching + feature discrimination.

    Parameters
    ----------
    iterations:
        ``L`` — synthetic-update iterations per segment (paper: 10); each
        draws a new randomized model.
    alpha:
        Weight of the feature-discrimination loss (paper: 0.1; 0 disables).
    tau:
        Contrastive temperature (paper: 0.07).
    syn_lr / syn_momentum:
        Learning rate / momentum of the synthetic-pixel optimizer ``opt_S``.
    batch_size:
        Max real samples used per matching iteration (paper: 128).
    metric:
        Gradient distance ``D`` ("cosine" as in the paper, or "l2").
    epsilon_numerator:
        Numerator of the finite-difference step (footnote 2: 0.01).
    rerandomize:
        Draw a fresh random model every iteration (the paper's choice).
        ``False`` keeps a single random model for all ``L`` iterations —
        the "one model across multiple steps" ablation of §III-C.
    use_confidence:
        Weight real samples by pseudo-label confidence (Eq. 4).  ``False``
        gives every retained sample weight 1 (ablation).
    """

    name = "deco"

    def __init__(self, *, iterations: int = 10, alpha: float = 0.1,
                 tau: float = 0.07, syn_lr: float = 0.1,
                 syn_momentum: float = 0.5, batch_size: int = 128,
                 metric: str = "cosine",
                 epsilon_numerator: float = 0.01,
                 rerandomize: bool = True,
                 use_confidence: bool = True) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = int(iterations)
        self.alpha = float(alpha)
        self.tau = float(tau)
        self.syn_lr = float(syn_lr)
        self.syn_momentum = float(syn_momentum)
        self.batch_size = int(batch_size)
        self.metric = metric
        self.epsilon_numerator = float(epsilon_numerator)
        self.rerandomize = bool(rerandomize)
        self.use_confidence = bool(use_confidence)

    # -- helpers -----------------------------------------------------------
    def _real_batch(self, real_x: np.ndarray, real_y: np.ndarray,
                    real_w: np.ndarray | None, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        if len(real_x) <= self.batch_size:
            return real_x, real_y, real_w
        idx = rng.choice(len(real_x), size=self.batch_size, replace=False)
        return (real_x[idx], real_y[idx],
                None if real_w is None else real_w[idx])

    def _discrimination_grad(self, buffer: SyntheticBuffer,
                             active_rows: np.ndarray, syn_x: np.ndarray,
                             deployed_model: Module,
                             rng: np.random.Generator,
                             passive_features: dict[int, np.ndarray]
                             ) -> tuple[np.ndarray, float]:
        """Gradient of Eq. (8) w.r.t. the active buffer pixels ``syn_x``.

        Only the involved classes — the active samples' own classes plus the
        pre-sampled negative class of each — are encoded, keeping the cost
        independent of the total class count (crucial for the CIFAR-100
        buffer, where encoding all 100 class blocks per iteration would
        dominate the runtime).

        The involved rows that are not being optimized ("passive" rows)
        keep their pixels, and the deployed encoder its weights, for the
        whole ``condense`` call, so their features come from
        ``passive_features`` (row -> feature), encoded once per call the
        first time a row is involved.

        The loss mixes samples, so it runs in three steps to keep the
        encoder's memory bounded by one micro-batch: the features of the
        active rows, slice by slice, keeping the graph of the last slice
        only; the Eq. 8 loss and its gradient at the involved rows'
        features; then the backward of each active slice, seeded with its
        rows of the feature gradient (the kept graph first, the other
        slices after running forward again).
        """
        zero = (np.zeros((len(active_rows), *buffer.image_shape),
                         dtype=np.float32), 0.0)
        if buffer.num_classes < 2:
            return zero
        active_labels = buffer.labels[active_rows]
        # One uniform draw over C-1 "other" classes per sample: values >= the
        # sample's own class shift up by one, which maps [0, C-1) onto
        # {0..C-1} \ {y_i} without the per-sample delete/choice allocations.
        draws = rng.integers(0, buffer.num_classes - 1,
                             size=len(active_labels))
        negatives = draws + (draws >= active_labels)
        involved = set(active_labels.tolist()) | set(negatives.tolist())
        rows = buffer.indices_for_classes(involved)
        # ``rows`` is sorted ascending (sorted class blocks of ascending
        # ranges) and contains every active row, so the active rows' local
        # positions come from one vectorized binary search.
        local_active = np.searchsorted(rows, active_rows)
        is_passive = np.ones(len(rows), dtype=bool)
        is_passive[local_active] = False
        passive_rows = rows[is_passive].tolist()

        parts = micro_batches(syn_x)
        # Only the gradient w.r.t. the buffer pixels is consumed, so the
        # deployed encoder's parameter gradients are pure waste — freeze
        # them for the duration of the pass.
        deployed_model.zero_grad()
        with frozen_parameters(deployed_model):
            missing = [r for r in passive_rows if r not in passive_features]
            with no_grad():
                if missing:
                    x_missing = buffer.decoded_images(missing)
                    for p in micro_batches(x_missing):
                        passive_features.update(zip(
                            missing[p], deployed_model.features(
                                Tensor(x_missing[p])).data))
                chunks = [deployed_model.features(Tensor(syn_x[p])).data
                          for p in parts[:-1]]
            kept = Tensor(syn_x[parts[-1]], requires_grad=True)
            kept_feats = deployed_model.features(kept)
            chunks.append(kept_feats.data)
            active_feats = np.concatenate(chunks)
            feats = np.empty((len(rows),) + active_feats.shape[1:],
                             dtype=np.float32)
            feats[local_active] = active_feats
            if passive_rows:
                feats[is_passive] = [passive_features[r] for r in passive_rows]
            feats = Tensor(feats, requires_grad=True)
            loss = feature_discrimination_loss(
                feats, buffer.labels[rows], local_active, rng,
                temperature=self.tau, negative_classes=negatives)
            if not loss.requires_grad:  # no usable positive/negative pairs
                return zero
            loss.backward()

            feat_grad = feats.grad[local_active]
            grad = np.zeros_like(syn_x)
            kept_feats.backward(feat_grad[parts[-1]])
            grad[parts[-1]] = kept.grad
            del kept_feats  # free the kept graph before the re-runs
            # The active slices the kept graph did not hold run forward
            # again.
            for p in parts[:-1]:
                x_part = Tensor(syn_x[p], requires_grad=True)
                deployed_model.features(x_part).backward(feat_grad[p])
                grad[p] = x_part.grad
        deployed_model.zero_grad()
        return grad, loss.item()

    # -- main entry ---------------------------------------------------------
    def condense(self, buffer: SyntheticBuffer, active_classes: Sequence[int],
                 real_x: np.ndarray, real_y: np.ndarray,
                 real_w: np.ndarray | None, *,
                 model_factory: ModelFactory,
                 rng: np.random.Generator,
                 deployed_model: Module | None = None) -> CondensationStats:
        active_rows = buffer.indices_for_classes(active_classes)
        if active_rows.size == 0 or len(real_x) == 0:
            return CondensationStats()
        if not self.use_confidence:
            real_w = None

        syn_labels = buffer.labels[active_rows]
        # The optimization variable is the *stored* payload; the matching
        # passes below consume its decoded (full-resolution) view.  For the
        # base buffer decode is the identity, so syn_x IS syn_store.data; a
        # factorized buffer interposes its upsample here and gets the
        # transposed gradient back through encode_grad.
        syn_store = Tensor(buffer.images[active_rows].copy(), requires_grad=True)
        optimizer = SGD([syn_store], self.syn_lr, momentum=self.syn_momentum)

        stats = CondensationStats()
        use_disc = self.alpha != 0.0 and deployed_model is not None
        model = model_factory(rng)
        # Deployed-encoder features of the passive rows, valid for this
        # call only: the next call may see new weights or new pixels.
        passive_features: dict[int, np.ndarray] = {}
        matching_passes = 0
        fused_evals = 0
        monitor = obs.get_monitor()
        skipped_steps = 0
        for it in range(self.iterations):
            if self.rerandomize:
                model = model_factory(rng)
            batch_x, batch_y, batch_w = self._real_batch(
                real_x, real_y, real_w, rng)

            syn_x = buffer.decode(syn_store.data)
            with obs.span("pass.g_real"):
                g_real, _ = parameter_gradients(
                    model, batch_x, batch_y, batch_w)
            with obs.span("pass.g_syn"):
                g_syn, _ = parameter_gradients(model, syn_x, syn_labels)
            if it == self.iterations - 1:
                # Quality scalar: how well the synthetic gradients track the
                # real ones — both stacks are already in hand, so this is a
                # few dot products per segment.
                stats.extra["grad_cosine"] = gradient_cosine(g_syn, g_real)
            # Health sentinels at the gradient hand-offs.  Under the default
            # ``record`` policy these only observe; a ``False`` return
            # (skip-step policy) drops the iteration before the poisoned
            # bytes can reach the synthetic payload.
            if not (monitor.check("matcher.g_real", g_real, iteration=it)
                    and monitor.check("matcher.g_syn", g_syn, iteration=it)):
                skipped_steps += 1
                continue
            with obs.span("pass.grad_distance"):
                distance, direction = distance_and_grad_wrt_gsyn(
                    g_syn, g_real, metric=self.metric)
            if not monitor.check("matcher.matching_loss", float(distance),
                                 iteration=it):
                skipped_steps += 1
                continue
            fd_stats: dict = {}
            matching_grad = finite_difference_matching_grad(
                model, syn_x, syn_labels, direction,
                epsilon_numerator=self.epsilon_numerator,
                stats_out=fd_stats)
            total_grad = matching_grad
            # passes: g_real, g_syn, grad_{g_syn}D, plus the two FD passes
            # of Eq. 7, lane-stacked or not (0 when the direction norm
            # was zero).
            fd_passes = fd_stats.get("passes", 2)
            fused_evals += bool(fd_stats.get("fused"))
            stats.forward_backward_passes += 3 + fd_passes
            matching_passes += 3 + fd_passes

            if use_disc:
                # The active rows are encoded from the payload being
                # optimized, the passive ones from the buffer.
                with obs.span("pass.discrimination"):
                    disc_grad, disc_loss = self._discrimination_grad(
                        buffer, active_rows, syn_x, deployed_model, rng,
                        passive_features)
                total_grad = total_grad + self.alpha * disc_grad
                stats.forward_backward_passes += 1
                stats.extra["discrimination_loss"] = disc_loss

            # total_grad lives in decoded space; pull it back onto the
            # storage through the decode transpose before stepping.
            syn_store.grad = np.asarray(buffer.encode_grad(total_grad),
                                        dtype=np.float32)
            if not monitor.check("matcher.syn_grad", syn_store.grad,
                                 iteration=it):
                skipped_steps += 1
                optimizer.zero_grad()
                continue
            optimizer.step()
            optimizer.zero_grad()

            stats.iterations += 1
            stats.matching_loss += distance

        stats.matching_loss /= max(stats.iterations, 1)
        stats.extra["matching_passes"] = matching_passes
        stats.extra["fused"] = fused_evals
        if skipped_steps:
            stats.extra["health_skipped"] = skipped_steps
        buffer.images[active_rows] = syn_store.data
        return stats
