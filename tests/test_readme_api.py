"""The README's Library section and the package's re-exports name the same API."""

import inspect
import re
from pathlib import Path

import nichols

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def test_readme_library_imports_resolve():
    block = re.search(r"from nichols import \(([^)]*)\)", _library_section())
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert names
    missing = [name for name in names if not hasattr(nichols, name)]
    assert missing == []


def test_every_reexport_is_documented():
    section = _library_section()
    public = [
        name for name, value in vars(nichols).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert "verify_levels" in public and "NicholsError" in public
    undocumented = [name for name in public if not re.search(rf"\b{name}\b", section)]
    assert undocumented == []
