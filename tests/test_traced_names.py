"""The benchmark's span list names functions that exist, and its counters
read the arguments they name.

``bench/tracing.py`` wraps the public functions listed in ``TRACED`` by name;
a renamed or deleted function would make the benchmark fail.  The file needs
only the standard library, so it is loaded here by path.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_names", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()
TRACED = TRACING_MODULE.TRACED
REPLICATE_COUNTERS = sorted(
    span for span, (names, _) in TRACING_MODULE.COUNTERS.items() if names == ("replicates",)
)


@pytest.mark.parametrize("module_name", sorted(TRACED))
def test_traced_names_are_public_functions(module_name):
    module = importlib.import_module(f"lambda_asg.{module_name}")
    for name in TRACED[module_name]:
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), f"{module_name}.{name} is not a function"
        assert not name.startswith("_")
        assert fn.__module__ == module.__name__, f"{module_name}.{name} is imported"


@pytest.mark.parametrize("span", REPLICATE_COUNTERS)
def test_replicate_counters_read_the_replicates_argument(span):
    # the counters read ``replicates`` by position when it is passed so;
    # called on the parameter names, they must pick the one named replicates
    module_name, name = span.split(".")
    fn = getattr(importlib.import_module(f"lambda_asg.{module_name}"), name)
    params = tuple(inspect.signature(fn).parameters)
    counter = TRACING_MODULE.COUNTERS[span][1]
    assert counter(params, {}, None) == {"replicates": "replicates"}
