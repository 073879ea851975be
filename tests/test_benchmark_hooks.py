"""The geotrack names the benchmark (``perfbench/``) wraps, imports or reads
still exist, so that a change that deletes or renames one fails here rather
than in a benchmark run.

``perfbench/tracing.py`` and ``perfbench/pipeline.py`` are imported from
their files, read-only; ``perfbench/bootstrap.py``, which pins the process to
one core, is never imported: the names every perfbench file reads off a
geotrack module are found in its syntax tree instead."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from geotrack import assignment, evaluation, matching, scene, simulator, tracker

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """The perfbench module ``name``, loaded from its file under a name of
    its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _geotrack_reads(path):
    """``(module name, attribute)`` of every name a file imports from a
    geotrack module or reads off one (``matching.train_matcher``) through
    the names its imports bind."""
    tree = ast.parse(path.read_text())
    bound, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "geotrack":
                    bound[alias.asname or "geotrack"] = alias.name if alias.asname else "geotrack"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "geotrack":
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if importlib.util.find_spec(node.module).submodule_search_locations \
                        and importlib.util.find_spec(submodule) is not None:
                    bound[alias.asname or alias.name] = submodule
                else:
                    reads.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            reads.append((bound[node.value.id], node.attr))
    return reads


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_name_the_benchmark_reads_exists(path):
    missing = [f"{module}.{name}" for module, name in _geotrack_reads(path)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} reads names geotrack no longer has: {missing}"


def test_the_scan_sees_the_pipeline_and_tracing_reads():
    pipeline_reads = set(_geotrack_reads(PERFBENCH / "pipeline.py"))
    assert {("geotrack.geometry", "Pose5D"), ("geotrack.matching", "train_matcher"),
            ("geotrack.scene", "load_scene")} <= pipeline_reads
    assert ("geotrack.matching", "Matcher") in set(_geotrack_reads(PERFBENCH / "tracing.py"))


def test_pipeline_imports():
    pipeline = _load("pipeline")
    assert pipeline.CHECKPOINT.is_file()


def test_instrument_wraps_and_restores_every_hook():
    """``tracing.instrument`` resolves every attribute it wraps and replaces
    each one; ``uninstall`` puts every original back."""
    tracing = _load("tracing")
    owners = (assignment, evaluation, matching, scene, simulator, tracker, matching.Matcher)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{attr} was not restored"
    assert [dict(vars(owner)) for owner in owners] == before


def test_every_hook_is_reached(tmp_path):
    """One tiny pass of the benchmark's stages under ``tracing.instrument``
    records a span at every hook it wraps: a hook that nothing reaches reads
    0 in every benchmark record. The one exception is
    ``assignment.solve_max``, which ``hungarian`` no longer calls."""
    tracing, pipeline = _load("tracing"), _load("pipeline")
    tracer = tracing.Tracer()
    wrap, hooks, reached = tracer.wrap, [], set()

    def recording_wrap(owner, attr, name, on_return=None):
        hook = f"{owner.__name__}.{attr}"
        hooks.append(hook)

        def label(args, kwargs):  # called once per recorded span
            reached.add(hook)
            return name(args, kwargs) if callable(name) else name

        wrap(owner, attr, label, on_return)

    tracer.wrap = recording_wrap
    try:
        tracing.instrument(tracer)
        tracer.start()
        inputs = pipeline.setup("evaluate", 3, "tiny", tmp_path)
        for route in inputs.routes:
            matching.train_matcher(route.samples, route.config, heldout=route.heldout)
        for sc, _ in inputs.scenes:
            state, _ = tracker.track_scene(sc, matching.Matcher(inputs.params))
            tracker.geolocation_report(state)
        for triple in inputs.synthetic:
            pipeline.evaluate_files(*triple)
        tracer.stop()
    finally:
        tracer.uninstall()
    assert set(hooks) - reached == {"geotrack.assignment.solve_max"}
