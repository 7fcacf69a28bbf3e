"""The benchmark's span list names functions that exist, and its counters
read the arguments they name.

``bench/tracing.py`` wraps the public functions listed in ``TRACED`` by name;
a renamed or deleted function would make the benchmark fail.  The file needs
only the standard library, so it is loaded here by path.
"""

import ast
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


def constant_arg_reads() -> list[tuple[str, int, str]]:
    """``(span, pos, name)`` of each ``_arg(args, kwargs, pos, "name")`` call
    with a constant position in a ``COUNTERS`` entry, or in a function of
    the file that the entry names."""
    tree = ast.parse(TRACING.read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    counters = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["COUNTERS"]
    )
    reads = []
    for key, value in zip(counters.keys, counters.values):
        named = [defs[n.id] for n in ast.walk(value) if isinstance(n, ast.Name) and n.id in defs]
        for node in [value, *named]:
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"
                    and isinstance(call.args[2], ast.Constant)
                ):
                    reads.append((key.value, call.args[2].value, call.args[3].value))
    return reads


ARG_READS = constant_arg_reads()


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


def test_counters_read_arguments_by_position():
    # the list below is not empty: path, cfg, a, b and resamples at least
    assert len(ARG_READS) >= 5


@pytest.mark.parametrize(
    "span, pos, name", ARG_READS, ids=[f"{span}-{name}" for span, _, name in ARG_READS]
)
def test_counters_read_the_argument_at_their_position(span, pos, name):
    # a counter reads ``name`` at ``pos`` when it is passed by position
    module_name, fn_name = span.split(".")
    fn = getattr(importlib.import_module(f"lambda_asg.{module_name}"), fn_name)
    assert tuple(inspect.signature(fn).parameters)[pos] == name
