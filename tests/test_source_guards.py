"""Source-level guards over ``src/repro``.

No code path may unpickle bytes from disk: every rebuildable cache goes
through the ``.npz`` pair in :mod:`repro.obs.atomicio` and every
checkpoint through its JSON envelope.  Temporary files are made in one
place only, the atomic writer, so none can leak from a hand-rolled
write.  The process-pool pipes pickle in memory through
:mod:`concurrent.futures` and are not affected.
"""

import ast
from pathlib import Path

import pytest

import repro

SOURCE_ROOT = Path(repro.__file__).parent
SOURCES = sorted(SOURCE_ROOT.rglob("*.py"))

#: unpickling entry points, as ``module.name``
FORBIDDEN_CALLS = {"pickle.load", "pickle.loads", "pickle.Unpickler"}
#: the one module allowed to create temporary files
MKSTEMP_HOME = Path("obs") / "atomicio.py"


def _dotted(node: ast.expr) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def violations(tree: ast.AST, relative: Path) -> list:
    """Every forbidden construct in one parsed module, as text."""
    # names bound by ``from pickle import load`` and the like
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("pickle", "tempfile"):
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        name = aliases.get(name, name)
        if name in FORBIDDEN_CALLS:
            found.append(f"{relative}:{node.lineno}: {name}")
        if name == "tempfile.mkstemp" and relative != MKSTEMP_HOME:
            found.append(f"{relative}:{node.lineno}: tempfile.mkstemp")
        for keyword in node.keywords:
            if (
                keyword.arg == "allow_pickle"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                found.append(f"{relative}:{node.lineno}: allow_pickle=True")
    return found


def test_sources_found():
    assert len(SOURCES) > 50
    assert SOURCE_ROOT / MKSTEMP_HOME in SOURCES


def test_no_unpickling_or_stray_temp_files():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(violations(tree, path.relative_to(SOURCE_ROOT)))
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "import pickle\npickle.load(handle)",
        "import pickle\nvalue = pickle.loads(blob)",
        "import pickle\npickle.Unpickler(handle).load()",
        "from pickle import loads as decode\ndecode(blob)",
        "import numpy as np\nnp.load(path, allow_pickle=True)",
        "import tempfile\ntempfile.mkstemp(dir='.')",
        "from tempfile import mkstemp\nmkstemp()",
    ],
)
def test_guard_catches(source):
    assert violations(ast.parse(source), Path("cpu") / "simulator.py")


def test_guard_allows_safe_code():
    source = (
        "import pickle, tempfile\nimport numpy as np\n"
        "pickle.dumps(value)\nnp.load(path, allow_pickle=False)\n"
    )
    assert violations(ast.parse(source), Path("cpu") / "simulator.py") == []
    mkstemp = "import tempfile\ntempfile.mkstemp()"
    assert violations(ast.parse(mkstemp), MKSTEMP_HOME) == []
