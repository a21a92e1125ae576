from __future__ import annotations

import ast
import dataclasses
import re
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import graphorder
from graphorder.cli import CONFIG_KEYS
from graphorder.scorer import ScorerConfig
from graphorder.tuner import RlConfig

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(graphorder.__file__).resolve().parent

# Public names that no module of the package calls, and why each stays.
UNCALLED_BY_DESIGN = {
    "format_similarity_matrix": "the writer of the --matrix input format",
    "check_prob": "the sampling-distribution invariant the tests assert",
}


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


def test_every_train_setting_has_one_default():
    # A setting that defaults to None would fall back to a rule written
    # somewhere else; each default is the field's own value.
    unset = [f"{cls.__name__}.{f.name}" for cls in (ScorerConfig, RlConfig)
             for f in dataclasses.fields(cls) if f.default is None]
    assert not unset


def test_every_public_name_has_a_caller():
    exported, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported.update((elt.value, path.name) for elt in node.value.elts)
    uncalled = {name: module for name, module in exported.items()
                if name not in referenced and name not in UNCALLED_BY_DESIGN}
    assert not uncalled, f"public names no module references: {uncalled}"


def test_every_public_method_has_a_caller():
    # Only attribute references count: a method is called as obj.name, and a
    # local variable of the same name (greedy_partition's sizes) is no caller.
    methods, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                methods.update((f"{node.name}.{item.name}", item.name) for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
    uncalled = sorted(qualified for qualified, name in methods.items() if name not in referenced)
    assert not uncalled, f"public methods no module calls: {uncalled}"


def test_no_import_cycle():
    # Every relative import, at module level or inside a function body.
    modules = {path.stem: path for path in PACKAGE.glob("*.py")
               if path.stem not in ("__init__", "__main__")}
    imports = {}
    for name, path in modules.items():
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported.update([node.module.split(".")[0]] if node.module
                                else [alias.name for alias in node.names])
        imports[name] = imported & set(modules)
    try:
        tuple(TopologicalSorter(imports).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
