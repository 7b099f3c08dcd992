"""The package's names and its README: what is exported exists, and the README's code runs."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ccfom

README = Path(__file__).resolve().parents[1] / "README.md"
# __main__ runs the CLI when it is imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(ccfom.__path__) if m.name != "__main__")


def _init_imports() -> dict[str, list[str]]:
    """The names ``ccfom/__init__`` imports, by the module it imports them from."""
    tree = ast.parse(Path(ccfom.__file__).read_text())
    return {node.module: [alias.name for alias in node.names]
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("name", MODULES)
def test_exports_are_defined_and_listed(name):
    # every __all__ entry is defined, and every name ccfom re-exports is one
    # its module exports: in __all__, or public where there is no __all__
    module = importlib.import_module(f"ccfom.{name}")
    exported = getattr(module, "__all__", None)
    assert [n for n in exported or () if not hasattr(module, n)] == []
    reexported = _init_imports().get(name, [])
    if exported is None:
        assert [n for n in reexported if n.startswith("_") or not hasattr(module, n)] == []
    else:
        assert [n for n in reexported if n not in exported] == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for i, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {i}", "exec"), {})


# the README's words for a mode's letter in config.KEYS, and for a default that is none
_READS = {"required": "R", "required list": "L", "optional": "o", "—": "-"}
_NO_DEFAULT = {"—", "none", "the method's"}


def test_readme_config_table_is_the_key_table():
    # the key table under "Config files": its keys in order, their defaults, and
    # each mode's letter, as config.KEYS has them
    from ccfom.config import KEYS, MODES

    section = README.read_text().split("### Config files", 1)[1]
    lines = section.split("\n\n")[2].splitlines()
    header, rule, *rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert header[3:] == ["run", "sweep", "verify", "conjecture", "conjecture, suite mode"]
    assert len(header[3:]) == len(MODES) and set(rule) == {"---"}
    table = {}
    for keys, _, defaults, *reads in rows:
        names = [key.strip().strip("`") for key in keys.split(",")]
        texts = [text.strip().strip("`") for text in defaults.split(",")]
        texts = texts if len(texts) == len(names) else texts * len(names)
        for name, text in zip(names, texts):
            default = None if text in _NO_DEFAULT else KEYS[name].parse(text)
            table[name] = (default, " ".join(_READS[cell] for cell in reads))
    assert list(table) == list(KEYS)
    assert table == {name: (key.default, " ".join(key.reads.split())) for name, key in KEYS.items()}
