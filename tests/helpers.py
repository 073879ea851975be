"""Reference code that only the tests use: a finite-difference gradient
check, input standardization fitted outside a training run, the per-array
SGD update that training's flat parameter vector replaced, the pose-by-pose
reference-frame transform, and a document mutator for the data-contract
fuzz tests."""

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from geotrack import matching
from geotrack.errors import ShapeMismatchError
from geotrack.geometry import REFERENCE, camera_to_world, world_to_camera

# --- gradient checking -------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_error: float
    worst_param: str
    tolerance: float
    errors: dict

    @property
    def passed(self):
        return self.max_error < self.tolerance


def grad_check(f, params, tolerance=1e-4, step=1e-5):
    """Compare analytic gradients of f against central finite differences.

    ``params`` maps names to arrays; ``f(params)`` must return
    (loss, grads-by-name). The per-entry error is relative,
    |a - b| / max(|a|, |b|, floor), where the floor is the roundoff noise
    that a central difference of this loss at this step cannot beat
    (about eps * |loss| / step), rescaled by the tolerance. Gradient
    entries below that resolution limit therefore pass on absolute
    agreement instead of drowning in quantization noise.
    """
    loss, grads = f(params)
    noise = 8.0 * np.finfo(np.float64).eps * max(1.0, abs(loss)) / step
    floor = noise / tolerance
    errors = {}
    worst = ("", 0.0)
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeMismatchError(f"gradient shape mismatch for {name}")
        err = 0.0
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + step
            hi = f(params)[0]
            p[idx] = orig - step
            lo = f(params)[0]
            p[idx] = orig
            fd = (hi - lo) / (2.0 * step)
            a, b = float(g[idx]), fd
            e = abs(a - b) / max(abs(a), abs(b), floor)
            err = max(err, e)
        errors[name] = err
        if err >= worst[1]:
            worst = (name, err)
    return GradCheckReport(
        max_error=worst[1], worst_param=worst[0], tolerance=tolerance, errors=errors
    )


# --- input standardization -----------------------------------------------------------


def fit_input_standardization(samples, params):
    """Freeze ``params``' input standardization from ``samples`` as a fresh
    ``train_matcher`` run does before its first epoch; returns ``params``."""
    matching._set_standardization(params, matching._input_statistics(samples, params)[1])
    return params


# --- per-array SGD update ---------------------------------------------------------


def _reference_sgd_epoch(samples, params, config, rng, lr, velocity, pose_only=False):
    """One pass of SGD with momentum, one array at a time: a fresh gradient
    dict per step, a Python sum of per-array squared norms for the clip, and
    a velocity array per trainable. Returns (mean affinity, mean pose loss,
    clipped steps)."""
    updates = [(name, arr) for name, arr in matching._named_arrays(params).items()
               if not pose_only or name.startswith(matching._UPSTREAM)]
    affinity_sum, pose_sum, pose_count, clipped = 0.0, 0.0, 0, 0
    for idx in rng.permutation(len(samples)):
        result = matching.forward_pair(samples[idx], params, with_grad=True,
                                       pose_only=pose_only)
        if not pose_only:
            affinity_sum += result["affinity"]
        pose_sum += sum(result["pose_losses"])
        pose_count += len(result["pose_losses"])
        grads = result["grads"]
        if config.grad_clip:
            norm = np.sqrt(sum(float(np.sum(grads[name] ** 2)) for name, _ in updates))
            if norm > config.grad_clip:
                clipped += 1
                for name, _ in updates:
                    grads[name] *= config.grad_clip / norm
        for name, arr in updates:
            g = grads[name]
            if name.endswith(".w") and "attention" not in name:
                g = g + config.weight_decay * arr
            step = lr * config.pose_lr_scale if name.startswith("pose_head.") else lr
            v = velocity[name]
            v *= config.momentum
            v -= step * g
            arr += v
    return (float(affinity_sum) / len(samples) if not pose_only else float("nan"),
            float(pose_sum) / pose_count if pose_count else 0.0, clipped)


def reference_train_matcher(samples, config, params=None, heldout=None):
    """``matching.train_matcher`` run with the per-array update above, every
    sample described on every call. Returns (params, history as (epoch,
    affinity, pose, accuracy) tuples, clipped steps)."""
    rng = np.random.default_rng(config.seed)
    pretrain = 0
    if params is None:
        params = matching.init_matcher_params(config, rng)
        fit_input_standardization(samples, params)
        if config.use_pose_head:
            pretrain = (config.pose_pretrain_epochs
                        if config.pose_pretrain_epochs is not None else config.epochs // 3)
    velocity = {name: np.zeros_like(a) for name, a in matching._named_arrays(params).items()}
    cutoff = int(np.floor(config.epochs * 2 / 3))
    schedule = [(True, config.learning_rate)] * pretrain + [
        (False, config.learning_rate * (config.lr_decay if epoch >= cutoff else 1.0))
        for epoch in range(config.epochs)]
    history, clipped = [], 0
    for pose_only, lr in schedule:
        affinity, pose, clips = _reference_sgd_epoch(samples, params, config, rng, lr,
                                                     velocity, pose_only)
        clipped += clips
        accuracy = matching.pair_accuracy(heldout or samples, params)
        history.append((params.epochs_trained, affinity, pose, accuracy))
        params.epochs_trained += 1
    return params, history, clipped


# --- frame transforms ----------------------------------------------------------------


def to_reference_frame(pose, ego_t, ego_ref):
    """Re-express a camera(t) pose in the reference camera frame.

    Equals world_to_camera(camera_to_world(pose, ego_t), ego_ref).
    """
    return world_to_camera(camera_to_world(pose, ego_t), ego_ref, REFERENCE)


# --- document mutation ---------------------------------------------------------------


def _kind(value):
    return "number" if type(value) in (int, float) else type(value).__name__


def mutate_one_value(doc, data, kind):
    """Break one value of ``doc`` in place: NaN, inf or +-1e308 (``kind``
    names the number), a value of another JSON type ("wrong type"), a
    "missing" key, or an "unknown key". Returns the key or list index
    broken."""
    # walk down from the top to a drawn depth, through dicts and lists
    path, node = [], doc
    for _ in range(data.draw(st.integers(1, 8))):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append((node, key))
        node = node[key]
    parent, key = path[-1]
    if kind == "missing":
        parent, key = [(p, k) for p, k in path if isinstance(p, dict)][-1]
        del parent[key]
    elif kind == "unknown key":
        target = node if isinstance(node, dict) else doc
        key = data.draw(st.text(min_size=1).filter(lambda k: k not in target))
        target[key] = 1
    elif kind == "wrong type":
        parent[key] = data.draw(st.sampled_from(
            [v for v in ("x", None, [], {}, True, 1.5) if _kind(v) != _kind(node)]))
    else:
        parent[key] = float(kind)
    return key
