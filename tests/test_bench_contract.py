"""What the benchmark in pmmbench/ reads from pmmkit by name.

``pmmbench/layers.py`` wraps pmmkit functions by module and attribute name
and binds their arguments by parameter name, and ``pmmbench/run.py``
records ``pmmkit.backend_name()``.  A rename or removal here breaks the
traced run and the provenance, so these checks load ``layers.py`` by path
and hold pmmkit to it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from unittest import mock

import pmmkit

LAYERS_PATH = Path(__file__).resolve().parents[1] / "pmmbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("pmmbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


def _targets():
    """(span name, function) for every TARGETS entry, resolved as the
    tracer resolves it."""
    for layer, (module_name, attrs) in layers.TARGETS.items():
        home = (
            importlib.import_module("pmmkit._backend").kernels
            if module_name is None
            else importlib.import_module(module_name)
        )
        pairs = attrs.items() if isinstance(attrs, dict) else ((a, a) for a in attrs)
        for attr, span in pairs:
            yield f"{layer}.{span}", getattr(home, attr, None)


def _bound_names(counter) -> list[str]:
    """The argument names a COUNTERS entry reads from the bound arguments."""
    seen = []

    class Arguments(dict):
        def __missing__(self, key):
            seen.append(key)
            return mock.MagicMock()

    try:
        counter(Arguments(), mock.MagicMock())
    except TypeError:
        pass  # os.path.getsize rejects the stand-in path.
    return seen


def test_every_target_resolves():
    for name, fn in _targets():
        assert callable(fn), f"{name} does not resolve to a function"


def test_counted_arguments_are_parameters():
    functions = dict(_targets())
    counted = set()
    for name, (_, counter) in layers.COUNTERS.items():
        parameters = inspect.signature(functions[name]).parameters
        for arg in _bound_names(counter):
            assert arg in parameters, f"{name} has no parameter {arg!r}"
            counted.add(arg)
    # Every name the counters use was seen, so the check above ran on all.
    assert counted == {
        "m", "obs", "n", "ys", "n_steps", "traj", "reps", "n_values", "k_values",
        "path",
    }


def test_backend_name_is_reported():
    assert isinstance(pmmkit.backend_name(), str)


def test_traced_fit_finds_the_estimator(tmp_path, capsys):
    # The estimator lives in pmmkit.model; the tracer wraps it in every
    # namespace that imported it, pipeline's included.
    from pmmkit.cli import main

    golden = Path(__file__).resolve().parent / "golden"
    tracer = layers.Tracer()
    tracer.install()
    try:
        code = main(["fit", "--input", str(golden / "series.csv"), "--detrend",
                     "--output", str(tmp_path / "model.json")])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    summary = layers.summarize(tracer)
    assert summary["simulate.empirical_covariances.calls"] == 1
    assert summary["pipeline.estimate_params.calls"] == 1
