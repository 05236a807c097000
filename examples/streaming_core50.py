"""CORe50-style session streaming with the full low-level API.

Demonstrates what :func:`repro.experiments.run_method` does under the hood:
building the session-ordered stream, wiring the pseudo-labeler, the
synthetic buffer, and the one-step condenser into a DECO learner, and
tracking a learning curve plus per-segment diagnostics (retention, label
accuracy, buffer memory).

Run:  python examples/streaming_core50.py [--ipc 2] [--threshold 0.4]
"""

import argparse

import numpy as np

from repro.buffer import SyntheticBuffer
from repro.condensation import OneStepMatcher
from repro.core import (DECOLearner, LearnerConfig, MajorityVotePseudoLabeler,
                        condense_offline, evaluate_accuracy, train_model)
from repro.data import load_dataset, make_stream
from repro.nn import ConvNet

_RAMP = " .:-=+*#%@"


def render_image(image: np.ndarray) -> list[str]:
    """Render a (C, H, W) array as ASCII intensity rows.

    Channels are averaged; intensities are min-max normalized per image.
    """
    arr = np.asarray(image, dtype=np.float64).mean(axis=0)
    low, high = float(arr.min()), float(arr.max())
    normalized = ((arr - low) / (high - low) if high - low > 1e-12
                  else np.zeros_like(arr))
    indices = (normalized * (len(_RAMP) - 1)).round().astype(int)
    return ["".join(_RAMP[i] for i in row) for row in indices]


def render_grid(images: np.ndarray, labels: np.ndarray, *,
                columns: int, separator: str = "  ") -> str:
    """Render an (N, C, H, W) batch ``columns`` images per text row, each
    group under a header of the images' labels."""
    blocks = []
    for start in range(0, len(images), columns):
        rendered = [render_image(img) for img in images[start:start + columns]]
        blocks.append(separator.join(
            f"[{label}]".ljust(len(rows[0]))
            for label, rows in zip(labels[start:start + columns], rendered)))
        blocks.extend(separator.join(line) for line in zip(*rendered))
        blocks.append("")
    return "\n".join(blocks).rstrip("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ipc", type=int, default=2)
    parser.add_argument("--threshold", type=float, default=0.4,
                        help="majority-voting threshold m")
    parser.add_argument("--profile", default="micro",
                        choices=("micro", "smoke"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--show-buffer", action="store_true",
                        help="render the final synthetic buffer as ASCII art")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    dataset = load_dataset("core50", args.profile, seed=0)
    print(f"CORe50-like: {dataset.num_classes} classes, "
          f"{dataset.spec.num_sessions} sessions, "
          f"{dataset.num_train} stream samples")

    # 1. Pre-train on a small labeled fraction (offline phase).
    model = ConvNet(dataset.channels, dataset.num_classes, dataset.image_size,
                    width=8 if args.profile == "micro" else 16, depth=2,
                    rng=rng)
    pre_x, pre_y = dataset.pretrain_subset(0.2, rng=rng)
    train_model(model, pre_x, pre_y, epochs=10, lr=1e-2, rng=rng)
    print(f"pre-trained accuracy: "
          f"{evaluate_accuracy(model, dataset.x_test, dataset.y_test):.2%}")

    # 2. Build the on-device learner.
    buffer = SyntheticBuffer(dataset.num_classes, args.ipc,
                             dataset.image_shape())
    learner = DECOLearner(
        model, buffer,
        condenser=OneStepMatcher(iterations=5, alpha=0.1),
        labeler=MajorityVotePseudoLabeler(args.threshold),
        config=LearnerConfig(beta=4, train_epochs=8, lr=1e-2),
        rng=rng)
    condense_offline(buffer, pre_x, pre_y, condenser=learner.condenser,
                     model_factory=learner.model_factory, rng=rng)
    print(f"buffer holds {len(buffer)} synthetic images "
          f"({buffer.memory_bytes / 1024:.1f} KiB)")

    # 3. Stream (session-ordered, as recorded video would arrive).
    stream = make_stream(dataset, segment_size=8, session_ordered=True,
                         rng=rng)
    history = learner.run(stream, x_test=dataset.x_test,
                          y_test=dataset.y_test, eval_every=4)

    print("\nlearning curve (inputs -> accuracy):")
    for samples, acc in zip(history.samples_seen, history.accuracy):
        bar = "#" * int(40 * acc)
        print(f"  {samples:>5}  {acc:6.2%}  {bar}")

    retained = [d["retained_fraction"] for d in history.diagnostics]
    label_acc = [d["retained_label_accuracy"] for d in history.diagnostics
                 if not np.isnan(d.get("retained_label_accuracy", np.nan))]
    print(f"\nmean data retained after majority voting: "
          f"{np.mean(retained):.2%}")
    if label_acc:
        print(f"mean retained pseudo-label accuracy:      "
              f"{np.mean(label_acc):.2%}")
    print(f"final accuracy: {history.final_accuracy:.2%}")

    if args.show_buffer:
        print("\ncondensed buffer (one synthetic image per cell):")
        print(render_grid(buffer.images, buffer.labels,
                          columns=min(8, len(buffer))))


if __name__ == "__main__":
    main()
