"""Every hammix name that the benchmark in ``perfbench/`` uses still resolves.

The suite's ``testpaths`` leave out ``perfbench/``, so a deleted or renamed
function that ``perfbench/spans.py`` wraps, or that ``perfbench/workloads.py``
imports or reads off an imported module, would break only the separate
benchmark smoke run.  The names are read from the two files' syntax trees,
without importing them.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _span_targets():
    """(module, attribute) of each entry of spans.TARGETS; a dotted attribute is a method."""
    for node in ast.walk(_tree("spans.py")):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _dotted(node):
    """'a.b.c' for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _workload_names():
    """Dotted path of each hammix name workloads.py imports, and of each attribute it reads off one."""
    tree = _tree("workloads.py")
    bound = {}  # local name -> the dotted path it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hammix":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hammix":
                    bound[alias.asname or "hammix"] = alias.name if alias.asname else "hammix"
    paths = set(bound.values())
    for node in ast.walk(tree):
        root, _, rest = (_dotted(node) or "").partition(".")
        if isinstance(node, ast.Attribute) and root in bound:
            paths.add(f"{bound[root]}.{rest}")
    return sorted(paths)


def _resolve(dotted):
    """The object a dotted path names: its longest importable module prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_benchmark_files_name_hammix():
    assert len(_span_targets()) >= 20
    assert {"hammix.cli.main", "hammix.simplex.simplex_max", "hammix.instances.random_table"} <= set(_workload_names())


@pytest.mark.parametrize("module,attr", _span_targets(), ids=lambda v: v)
def test_span_target_resolves(module, attr):
    target = _resolve(f"{module}.{attr}")
    assert callable(target)
    if "." in attr:
        # spans.py patches a method in its class's own namespace.
        cls_name, method = attr.split(".")
        assert method in vars(_resolve(f"{module}.{cls_name}"))


@pytest.mark.parametrize("path", _workload_names())
def test_workload_name_resolves(path):
    _resolve(path)
