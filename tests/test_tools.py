"""``tools/code_lines.py``, the code-only line counter of the package,
``tools/kernel_faults.py``, the per-call time and fault counter of the limit
kernels, ``tools/mutants.py``, the mutation runner, and guards on the
package's public surface.

The scripts are not a package, so they are loaded here by path.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

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
mutants = load_tool("mutants")


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


def test_kernel_faults_prints_each_call_and_a_total(capsys, monkeypatch):
    monkeypatch.setattr(kernel_faults, "REPLICATES", 300)
    monkeypatch.setattr(kernel_faults, "PASSES", 2)
    assert kernel_faults.main() == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["pass", "setting", "kernel", "wall_s", "minflt"]
    kernels = ["sde_final_values", "chain_final_states"] * len(kernel_faults.MOMENT_SETTINGS)
    for p in (1, 2):
        mine = [row for row in rows if row[0] == str(p)]
        assert [row[2] for row in mine] == kernels + ["total"]
        assert all(float(row[3]) >= 0.0 and int(row[4]) >= 0 for row in mine)
        assert sum(int(row[4]) for row in mine[:-1]) == int(mine[-1][4])


def toy_package(root):
    """A package ``toy`` with one function and its test under ``root``."""
    (root / "src" / "toy").mkdir(parents=True)
    (root / "src" / "toy" / "__init__.py").write_text("def double(x):\n    return 2 * x\n")
    (root / "tests").mkdir()
    (root / "tests" / "test_toy.py").write_text(
        "from toy import double\n\n\ndef test_double():\n    assert double(3) == 6\n"
    )


def test_mutants_kills_a_toy_mutant_on_a_copy(tmp_path, capsys):
    toy_package(tmp_path)
    source = (tmp_path / "src" / "toy" / "__init__.py").read_text()
    mutant = mutants.Mutant("triple", "src/toy/__init__.py", "2 * x", "3 * x", ("tests/test_toy.py",))
    assert mutants.run([mutant], root=tmp_path) == 0
    name, status, seconds, killer = capsys.readouterr().out.split()
    assert (name, status, killer) == ("triple", "killed", "tests/test_toy.py::test_double")
    assert float(seconds.rstrip("s")) >= 0.0
    # the mutant ran on a copy: the package is untouched
    assert (tmp_path / "src" / "toy" / "__init__.py").read_text() == source


def test_a_node_id_names_the_test_that_kills(tmp_path, capsys):
    # both tests fail on the mutant; the node id runs the second alone
    toy_package(tmp_path)
    with open(tmp_path / "tests" / "test_toy.py", "a") as fh:
        fh.write("\n\ndef test_double_again():\n    assert double(4) == 8\n")
    node = "tests/test_toy.py::test_double_again"
    mutant = mutants.Mutant("triple", "src/toy/__init__.py", "2 * x", "3 * x", (node,))
    assert mutants.run([mutant], root=tmp_path) == 0
    assert capsys.readouterr().out.split()[3] == node


def test_mutants_refuse_text_that_does_not_occur_once(tmp_path):
    toy_package(tmp_path)
    mutant = mutants.Mutant("stale", "src/toy/__init__.py", "4 * x", "5 * x", ("tests/test_toy.py",))
    with pytest.raises(ValueError, match="old text occurs 0 times in src/toy/__init__.py"):
        mutants.run_mutant(mutant, tmp_path)


def test_every_mutant_matches_its_file_once():
    for m in mutants.MUTANTS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        # a test is a file or a pytest node id, file::Class::test
        for test in m.tests:
            path, *names = test.split("::")
            assert (ROOT / path).exists(), m.name
            source = (ROOT / path).read_text()
            assert all(f"class {n}" in source or f"def {n}(" in source for n in names), test


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
