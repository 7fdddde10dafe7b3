"""The package's export list and the README's "Public API" section agree."""

import importlib
import re
import types
from pathlib import Path

import spinpath

README = Path(__file__).resolve().parents[1] / "README.md"


def _documented() -> dict[str, list[str]]:
    """Names listed in README's Public API section, by module line."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for item in re.split(r"\n- ", section)[1:]:
        module, _, names = item.partition(":")
        listed[module.strip("`")] = re.findall(r"`(\w+)`", names)
    return listed


def test_every_export_is_documented_and_every_documented_name_exported():
    exported = {
        name
        for name, value in vars(spinpath).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = _documented()
    documented = [name for names in listed.values() for name in names]
    assert len(documented) == len(set(documented)), "a name is listed twice"
    assert exported - set(documented) == set(), "exported but not in README"
    assert set(documented) - exported == set(), "in README but not exported"
    for module, names in listed.items():
        source = importlib.import_module(module)
        for name in names:
            assert getattr(source, name) is getattr(spinpath, name), (module, name)
