"""``tools/code_lines.py``, the code-only line counter of the package,
``tools/kernel_faults.py``, the per-call time and fault counter of the limit
kernels, and guards on the package's public surface.

The scripts are not a package, so they are loaded here by path.
"""

import importlib.util
import inspect
from pathlib import Path

import lambda_asg
from lambda_asg import errors

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_tool("code_lines")
kernel_faults = load_tool("kernel_faults")


def printed_counts(capsys) -> dict[str, int]:
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    return {name: int(count) for count, name in rows}


def test_lists_every_module_and_their_sum(capsys):
    counts = printed_counts(capsys)
    total = counts.pop("total")
    modules = sorted(p.name for p in (ROOT / "src" / "lambda_asg").glob("*.py"))
    assert sorted(counts) == modules
    assert total == sum(counts.values())
    assert all(counts[name] == code_lines.code_lines(code_lines.PACKAGE / name) for name in counts)


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    path = tmp_path / "empty.py"
    path.write_text('"""A module docstring\n\nover three lines."""\n\n# a comment\n\n   # another\n')
    assert code_lines.code_lines(path) == 0
    path.write_text('"""Doc."""\n\n\ndef f():\n    """Doc."""\n    # note\n    return 1\n')
    assert code_lines.code_lines(path) == 2


def test_kernel_faults_prints_each_call_and_a_total(capsys):
    assert kernel_faults.main(["--replicates", "300", "--passes", "2"]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["pass", "setting", "kernel", "wall_s", "minflt"]
    kernels = ["sde_final_values", "chain_final_states"] * len(kernel_faults.MOMENT_SETTINGS)
    for p in (1, 2):
        mine = [row for row in rows if row[0] == str(p)]
        assert [row[2] for row in mine] == kernels + ["total"]
        assert all(float(row[3]) >= 0.0 and int(row[4]) >= 0 for row in mine)
        assert sum(int(row[4]) for row in mine[:-1]) == int(mine[-1][4])


def test_every_public_name_resolves():
    assert [name for name in lambda_asg.__all__ if not hasattr(lambda_asg, name)] == []


def test_every_error_class_is_raised():
    # an error class that no code raises is dead public surface
    package = ROOT / "src" / "lambda_asg"
    source = "\n".join(p.read_text() for p in package.glob("*.py"))
    classes = [
        name for name, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__ and cls is not errors.LambdaAsgError
    ]
    assert classes
    assert [name for name in classes if f"raise {name}(" not in source] == []
