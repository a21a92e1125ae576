from __future__ import annotations

import re
from pathlib import Path

import graphorder
from graphorder.cli import CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_import_is_the_package_root():
    library = README.read_text().split("## Library", 1)[1]
    block = library.split("```python", 1)[1].split("```", 1)[0]
    statement = re.search(r"^from graphorder import \(.*?\)", block, re.S | re.M).group(0)
    namespace: dict = {}
    exec(statement, namespace)
    assert set(namespace) - {"__builtins__"} == set(graphorder.__all__)


def test_readme_config_keys_are_the_cli_keys():
    section = README.read_text().split("### Config files", 1)[1]
    keys = section.split("Keys:", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`(\w+)`", keys) == list(CONFIG_KEYS)
