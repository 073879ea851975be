"""In-memory span tracing of geotrack's layers, from the benchmark's side.

``instrument`` replaces public functions on the module the caller looks them
up from (``geotrack.tracker.hungarian``, ``geotrack.matching.mlp_forward``,
...), so the program runs unchanged and tracing is removed again with
``Tracer.uninstall``. While a phase is open, every wrapped call records a span
(name, start, end, parent) and may add to named counts; ``layer_metrics``
turns the phases of a run into per-layer self times, counts and ratios.
"""

import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

from geotrack import assignment, evaluation, matching, scene, simulator, tracker


class Phase:
    """Spans and counts recorded between one ``start`` and ``stop``."""

    def __init__(self, names, spans, counts):
        self.names = names
        self.spans = spans  # [name index, start, end, parent span index or -1]
        self.counts = counts

    def totals(self):
        """Per span name: [calls, inclusive seconds, self seconds]."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), child in zip(self.spans, covered):
            row = out[self.names[name]]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return out


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.enabled = False
        self.phases = []
        self._spans = []
        self._counts = Counter()
        self._stack = []
        self._patches = []

    def start(self):
        self._spans, self._counts, self._stack = [], Counter(), []
        self.enabled = True

    def stop(self):
        self.enabled = False
        phase = Phase(self.names, self._spans, self._counts)
        self.phases.append(phase)
        return phase

    def count(self, key, amount=1):
        if self.enabled:
            self._counts[key] += amount

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr, name, on_return=None):
        """Trace ``owner.attr``; ``name`` may be a callable of (args, kwargs)."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else -1
            span = [self._name_id(label), 0.0, 0.0, parent]
            self._stack.append(len(self._spans))
            self._spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self._counts, result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every recorded phase as one JSON document, times in seconds
        from the first span."""
        t0 = min((ph.spans[0][1] for ph in self.phases if ph.spans), default=0.0)
        doc = {
            "names": self.names,
            "phases": [
                {"spans": [[n, round(s - t0, 7), round(e - t0, 7), p]
                           for n, s, e, p in ph.spans],
                 "counts": dict(ph.counts)}
                for ph in self.phases
            ],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


# --- the layers and their counts ------------------------------------------------


def _rows(x):
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _hungarian(counts, result, score, *_):
    rows, cols = np.shape(score)
    counts["assignment.cells"] += rows * cols
    counts["assignment.rows"] += rows
    counts["assignment.empty"] += int(cols == rows)
    counts["assignment.matched"] += len(result.matches)


def _score_matrix(counts, _result, tracks, *_):
    counts["tracker.rows"] += len(tracks)
    counts["tracker.frames"] += 1


def _bundle(counts, _result, _self, rows, cols, *_):
    counts["matching.bundle.pairs"] += len(rows) * len(cols)


def _pair_logits(counts, _result, pair_tensor, *_a, **_k):
    counts["matching.score_pair_logits.pairs"] += int(np.prod(np.shape(pair_tensor)[:2]))


def _mlp_forward(counts, _result, _layers, x, *_a, **_k):
    counts["numerics.mlp_forward.rows"] += _rows(x)


def _iou(counts, _result, boxes_a, boxes_b, *_a, **_k):
    counts["kernels.iou_matrix.pairs"] += _rows(boxes_a) * _rows(boxes_b)


def _load_scene(counts, _result, path, *_a, **_k):
    counts["scene.load_scene.bytes"] += os.path.getsize(path)


def _forward_pair_name(_args, kwargs):
    kind = "grad" if kwargs.get("with_grad") else "eval"
    return f"matching.forward_pair.{kind}"


def instrument(tracer):
    """Wrap every traced geotrack function."""
    wrap = tracer.wrap
    wrap(tracker, "step", "tracker.step")
    wrap(tracker, "score_matrix", "tracker.score_matrix", _score_matrix)
    wrap(tracker, "aggregate_pose", "tracker.aggregate_pose")
    wrap(tracker, "hungarian", "assignment.hungarian", _hungarian)
    wrap(evaluation, "hungarian", "assignment.hungarian", _hungarian)
    wrap(assignment, "solve_max", "assignment.solve_max")
    wrap(assignment, "solve_lap_min", "kernels.solve_lap_min")
    wrap(evaluation, "iou_matrix", "kernels.iou_matrix", _iou)
    wrap(matching.Matcher, "bundle", "matching.bundle", _bundle)
    wrap(matching.Matcher, "descriptors", "matching.descriptors")
    wrap(matching, "score_pair_logits", "matching.score_pair_logits", _pair_logits)
    wrap(matching, "augment_normalize", "matching.augment_normalize")
    wrap(matching, "forward_pair", _forward_pair_name)
    wrap(matching, "pair_accuracy", "matching.pair_accuracy")
    wrap(matching, "loss_affinity", "matching.loss_affinity")
    wrap(matching, "train_matcher", "matching.train_matcher")
    wrap(matching, "mlp_forward", "numerics.mlp_forward", _mlp_forward)
    wrap(matching, "mlp_backward", "numerics.mlp_backward")
    wrap(matching, "reference_transform", "geometry.reference_transform")
    wrap(matching, "recover_translation", "geometry.recover_translation")
    wrap(evaluation, "mot_metrics", "evaluation.mot_metrics")
    wrap(evaluation, "pr_curve", "evaluation.pr_curve")
    wrap(evaluation, "greedy_match", "evaluation.greedy_match")
    wrap(scene, "load_scene", "scene.load_scene", _load_scene)
    wrap(scene, "read_mot", "scene.read_mot")
    wrap(simulator, "generate_scene", "simulator.generate_scene")
    wrap(simulator, "make_matching_dataset", "simulator.make_matching_dataset")


def _ratio(num, den):
    return num / den if den else 0.0


def _merge(phases):
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    counts = Counter()
    for phase in phases:
        for name, row in phase.totals().items():
            for k in range(3):
                totals[name][k] += row[k]
        counts.update(phase.counts)
    return totals, counts


def layer_metrics(setup_phases, pass_phases):
    """Per-layer figures: times and counts per pass (setup ones per set-up)."""
    totals, c = _merge(pass_phases)
    n = len(pass_phases)

    def self_s(name):
        return totals[name][2] / n

    def calls(name):
        return totals[name][0] / n

    step_total = totals["tracker.step"][1]
    lap_calls = totals["kernels.solve_lap_min"][0]
    solves = totals["assignment.solve_max"][0]
    bytes_read = c["scene.load_scene.bytes"]
    setup, _ = _merge(setup_phases)
    return {
        "tracker.step.s": self_s("tracker.step"),
        "tracker.step.layer_share": _ratio(step_total - totals["tracker.step"][2], step_total),
        "tracker.score_matrix.s": self_s("tracker.score_matrix"),
        "tracker.aggregate_pose.s": self_s("tracker.aggregate_pose"),
        "tracker.aggregate_pose.calls": calls("tracker.aggregate_pose"),
        "tracker.rows_per_frame": _ratio(c["tracker.rows"], c["tracker.frames"]),
        "tracker.tracks_total": c["tracker.tracks_total"] / n,
        "matching.bundle.s": self_s("matching.bundle"),
        "matching.bundle.calls": calls("matching.bundle"),
        "matching.bundle.pairs": c["matching.bundle.pairs"] / n,
        "matching.bundle.calls_per_frame": _ratio(totals["matching.bundle"][0],
                                                  c["tracker.frames"]),
        "matching.score_pair_logits.s": self_s("matching.score_pair_logits"),
        "matching.score_pair_logits.pairs": c["matching.score_pair_logits.pairs"] / n,
        "matching.descriptors.s": self_s("matching.descriptors"),
        "matching.augment_normalize.s": self_s("matching.augment_normalize"),
        "matching.augment_normalize.calls": calls("matching.augment_normalize"),
        "matching.forward_pair.grad.s": self_s("matching.forward_pair.grad"),
        "matching.forward_pair.eval.s": self_s("matching.forward_pair.eval"),
        "matching.pair_accuracy.s": self_s("matching.pair_accuracy"),
        "matching.loss_affinity.s": self_s("matching.loss_affinity"),
        "train.update_s": self_s("matching.train_matcher"),
        "numerics.mlp_forward.s": self_s("numerics.mlp_forward"),
        "numerics.mlp_forward.calls": calls("numerics.mlp_forward"),
        "numerics.mlp_forward.rows_per_call": _ratio(c["numerics.mlp_forward.rows"],
                                                     totals["numerics.mlp_forward"][0]),
        "numerics.mlp_backward.s": self_s("numerics.mlp_backward"),
        "numerics.mlp_backward.calls": calls("numerics.mlp_backward"),
        "geometry.reference_transform.s": self_s("geometry.reference_transform"),
        "geometry.reference_transform.calls": calls("geometry.reference_transform"),
        "geometry.recover_translation.calls": calls("geometry.recover_translation"),
        "assignment.hungarian.s": self_s("assignment.hungarian"),
        "assignment.hungarian.calls": calls("assignment.hungarian"),
        "assignment.hungarian.cells": c["assignment.cells"] / n,
        "assignment.hungarian.empty_share": _ratio(c["assignment.empty"],
                                                   totals["assignment.hungarian"][0]),
        "assignment.resolves_per_solve": _ratio(lap_calls - solves, solves),
        "assignment.match_share": _ratio(c["assignment.matched"], c["assignment.rows"]),
        "kernels.solve_lap_min.s": self_s("kernels.solve_lap_min"),
        "kernels.solve_lap_min.calls": lap_calls / n,
        "kernels.iou_matrix.s": self_s("kernels.iou_matrix"),
        "kernels.iou_matrix.calls": calls("kernels.iou_matrix"),
        "kernels.iou_matrix.pairs": c["kernels.iou_matrix.pairs"] / n,
        "evaluation.mot_metrics.s": self_s("evaluation.mot_metrics"),
        "evaluation.pr_curve.s": self_s("evaluation.pr_curve"),
        "evaluation.greedy_match.s": self_s("evaluation.greedy_match"),
        "scene.load_scene.s": self_s("scene.load_scene"),
        "scene.load_scene.mb_per_s": _ratio(bytes_read / 1e6, totals["scene.load_scene"][1]),
        "scene.read_mot.s": self_s("scene.read_mot"),
        "simulator.generate_scene.s": setup["simulator.generate_scene"][2] / len(setup_phases),
        "simulator.make_matching_dataset.s":
            setup["simulator.make_matching_dataset"][2] / len(setup_phases),
    }
