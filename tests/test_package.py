"""The package's public surface."""

from pathlib import Path

import gkverify
from gkverify import gkmodule, liealg, poly, symsq, weyl

MODULES = (poly, weyl, liealg, gkmodule, symsq)

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks only `from gkverify import *`, not the import
    missing = [name for name in gkverify.__all__ if not hasattr(gkverify, name)]
    assert missing == []
    namespace = {}
    exec("from gkverify import *", namespace)
    assert set(gkverify.__all__) <= set(namespace)


def test_each_public_name_is_listed_once_by_its_own_module():
    # the package list is the module lists, so no name can be exported twice
    # or missed; a module lists only what it defines, not what it imports
    assert gkverify.__all__ == [
        *(name for module in MODULES for name in module.__all__), "__version__"
    ]
    assert len(set(gkverify.__all__)) == len(gkverify.__all__)
    strays = [
        (module.__name__, name)
        for module in MODULES
        for name in module.__all__
        if callable(obj := getattr(module, name)) and obj.__module__ != module.__name__
    ]
    assert strays == []


def _readme_block(heading: str) -> str:
    """The first python code block under a level-two README heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    # the block is run as written, so the README cannot drift from the API
    exec(compile(_readme_block("Library"), "README.md", "exec"), {})
