"""Source hygiene: every imported name in src/, tests/ and perfbench/ is
used; no class in src/ but ``FieldCodec`` writes its own codec; and no
function body on the per-item paths looks up an enum member by attribute.

A name counts as used when the module references it anywhere (as a name or
the root of an attribute chain), lists it in ``__all__``, or names it inside
a string annotation. ``from __future__`` imports and ``*`` imports are not
checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "perfbench")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _referenced(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each imported name the source never uses."""
    tree = ast.parse(source)
    used = _referenced(tree)
    return sorted(
        ((name, line) for name, line in _imported(tree).items() if name not in used),
        key=lambda item: item[1],
    )


def test_unused_imports_are_detected_and_exemptions_hold():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Iterator, Optional, Sequence\n"
        "from collections import Counter\n"
        "__all__ = ['Counter']\n"
        "def f(x: 'Optional[int]') -> 'Iterator[str]':\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [("j", 3), ("Sequence", 4)]


def test_no_unused_imports_in_src_and_tests():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in CHECKED
        for path in sorted((ROOT / top).rglob("*.py"))
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def hand_codecs(source: str) -> list[str]:
    """``Class.method`` of each from_dict or to_dict defined outside FieldCodec."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name != "FieldCodec"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("from_dict", "to_dict")
    ]


def test_hand_written_codecs_are_detected():
    source = (
        "class FieldCodec:\n    def from_dict(cls, raw): ...\n    def to_dict(self): ...\n"
        "class Profile(FieldCodec):\n    @classmethod\n    def from_dict(cls, raw): ...\n"
        "def to_dict(x): ...\n"
    )
    assert hand_codecs(source) == ["Profile.from_dict"]


def test_only_field_codec_decodes_and_encodes_records():
    offenders = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in hand_codecs(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


# Modules on the campaign's and the report's per-item paths, and the enums
# whose members they must compare against as module globals: an attribute
# lookup of a member goes through the enum metaclass on every call.
HOT_MODULES = (
    "analytics", "eventlog", "orchestrator", "platform", "simulator", "strategy", "targeting",
)
ENUMS = {"EventKind", "ItemKind", "MessageKind", "TargetAuthor", "LabelValue"}


def enum_member_lookups(source: str) -> list[tuple[int, str]]:
    """(line, ``Enum.MEMBER``) of each enum member a function body looks up
    by attribute; module-level tables and default values are not bodies."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            for sub in (sub for stmt in body for sub in ast.walk(stmt)):
                if (
                    isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id in ENUMS and sub.attr.isupper()
                ):
                    found.add((sub.lineno, f"{sub.value.id}.{sub.attr}"))
    return sorted(found)


def test_enum_member_lookups_in_function_bodies_are_detected():
    source = (
        "TABLE = {EventKind.ABORT: 1}\n"
        "ABORT = EventKind.ABORT\n"
        "def f(kind, default=ItemKind.RETWEET):\n"
        "    if kind is ABORT or kind.value == 'x':\n"
        "        return [m for m in EventKind]\n"
        "    return lambda k: k is MessageKind.CALL\n"
        "class C:\n"
        "    kind = LabelValue.ON_TOPIC\n"
        "    def g(self):\n"
        "        def h():\n"
        "            return TargetAuthor.BOT\n"
        "        return h\n"
    )
    assert enum_member_lookups(source) == [(6, "MessageKind.CALL"), (11, "TargetAuthor.BOT")]


def test_hot_modules_compare_against_bound_enum_members():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {lookup}"
        for name in HOT_MODULES
        for path in [ROOT / "src" / "campaignkit" / f"{name}.py"]
        for line, lookup in enum_member_lookups(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
