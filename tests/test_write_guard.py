"""Every file the package writes goes through the one writer in ``report``.

That writer overwrites in place and never opens with ``O_TRUNC``, because
ext4 flushes a file truncated to size 0 when it is closed. This test parses
the package's sources and fails on any other way of writing a file that
truncates it on open.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "spinpath").glob("*.py"))
WRITER = ("report.py", "_write_chunks")


def _opens_for_writing(call: ast.Call) -> str | None:
    """The mode of an ``open(path, mode)``, ``io.open(path, mode)`` or
    ``path.open(mode)`` call that opens for writing, else None. A mode is a
    string literal of mode letters, positional or ``mode=``."""
    candidates = call.args[:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    for node in candidates:
        value = node.value if isinstance(node, ast.Constant) else None
        if isinstance(value, str) and "w" in value and set(value) <= set("rwxabt+U"):
            return value
    return None


def _nodes(node, skip: str | None):
    """Every node under ``node``, leaving out the body of function ``skip``."""
    if isinstance(node, ast.FunctionDef) and node.name == skip:
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _nodes(child, skip)


def truncating_writes(source: str, skip: str | None = None) -> list[tuple[int, str]]:
    """(line, what) of every ``.write_text(``, ``.write_bytes(``,
    ``open(..., "w...")`` and use of ``O_TRUNC`` outside function ``skip``."""
    found = []
    for node in _nodes(ast.parse(source), skip):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name == "O_TRUNC":
                found.append((node.lineno, "O_TRUNC"))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes"):
            found.append((node.lineno, f".{name}("))
        elif name == "open" and (mode := _opens_for_writing(node)):
            found.append((node.lineno, f"open(..., {mode!r})"))
    return found


def test_the_guard_sees_every_truncating_write():
    source = "\n".join(
        [
            "Path(p).write_text(t)",
            "p.write_bytes(b)",
            "open(p, 'w')",
            "open(p, mode='wb')",
            "io.open(p, 'w+')",
            "p.open('w', encoding='ascii')",
            "os.open(p, os.O_WRONLY | os.O_TRUNC)",
            "def writer(p):\n    open(p, 'wb')",
        ]
    )
    assert [line for line, _ in truncating_writes(source, skip="writer")] == [1, 2, 3, 4, 5, 6, 7]
    benign = "open('w.txt')\nopen(p, 'rb')\nwrite_ascii(p, t)\np.read_text()\np.open()"
    assert truncating_writes(benign) == []


def test_the_writer_exists():
    tree = ast.parse(next(p for p in SOURCES if p.name == WRITER[0]).read_text())
    assert WRITER[1] in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_truncating_write_outside_the_writer(path):
    skip = WRITER[1] if path.name == WRITER[0] else None
    assert truncating_writes(path.read_text(encoding="ascii"), skip) == []
