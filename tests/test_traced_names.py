"""The benchmark's span list names functions that exist.

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


def load_traced() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("bench_tracing_names", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = load_traced()


@pytest.mark.parametrize("module_name", sorted(TRACED))
def test_traced_names_are_public_functions(module_name):
    module = importlib.import_module(f"lambda_asg.{module_name}")
    for name in TRACED[module_name]:
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), f"{module_name}.{name} is not a function"
        assert not name.startswith("_")
        assert fn.__module__ == module.__name__, f"{module_name}.{name} is imported"
