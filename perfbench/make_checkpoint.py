#!/usr/bin/env python3
"""Regenerate the observation-route matcher checkpoint the tracking stages load.

    python3 perfbench/make_checkpoint.py          # rewrite data/obs-matcher.json
    python3 perfbench/make_checkpoint.py --check  # exit 1 unless the stored file matches

The matcher is the one the test suite's tracking tests train: the 32-scene
three-profile mixture (scene seeds 1000-1031), 12 pairs per scene, 30 epochs,
matcher seed 1. Training takes about half a minute on two cores.
"""

import argparse
import json
import sys

import bootstrap


def train():
    """Checkpoint text as ``geotrack.matching.save_checkpoint`` writes it."""
    import pipeline
    from geotrack import matching, simulator

    scenes = [simulator.generate_scene(c) for c in pipeline.observation_mixture(1000, 32)]
    samples = simulator.make_matching_dataset(scenes, n_max=20, pairs_per_scene=12, seed=0)
    params, _ = matching.train_matcher(samples, pipeline.observation_config(epochs=30))
    return json.dumps(matching.params_to_doc(params), sort_keys=True) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the stored checkpoint instead of writing it")
    args = parser.parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.CheckoutError as exc:
        print(f"make_checkpoint: {exc}", file=sys.stderr)
        return 2
    import pipeline
    from geotrack.scene import atomic_write_text

    text = train()
    if args.check:
        if pipeline.CHECKPOINT.read_text() != text:
            print(f"{pipeline.CHECKPOINT} differs from a fresh training run", file=sys.stderr)
            return 1
        print(f"{pipeline.CHECKPOINT} matches a fresh training run")
        return 0
    pipeline.CHECKPOINT.parent.mkdir(exist_ok=True)
    atomic_write_text(pipeline.CHECKPOINT, text)
    print(f"wrote {pipeline.CHECKPOINT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
