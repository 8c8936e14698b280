"""Source hygiene: every imported name in src/, tests/ and perfbench/ is
used; no class in src/ but ``FieldCodec`` writes its own codec; no
function body on the per-item paths looks up by attribute a member of any
enum that src/ defines; nothing in src/ but ``model.load_yaml`` chooses a
YAML loader; nothing in src/ but ``eventlog``, which encodes and decodes
the event log, imports ``orjson``; nothing in src/ imports from ``json.encoder``; no function body
in src/ imports; no function body in the simulated platform calls the rng's
``choice``, ``uniform`` or ``expovariate``; every frozen slotted
dataclass in src/ is built by ``slot_init``; nothing in src/ but
``eventlog``, whose ``CampaignState.apply`` folds the log, writes a
conversation record's fields; and nothing in src/ but
``eventlog.validate_events`` builds a ``ReportIndex``, so the live run's
state carries none; every defaulted parameter of a function in src/ is
passed by some call in src/, tests/ or perfbench/; and every field of a
dataclass in src/ that is not a ``FieldCodec`` is read by name somewhere in
src/; and nothing in src/ opens a file in a mode that appends or updates
(one holding ``a`` or ``+``) or calls ``truncate``, so the log has one
writer mode.

A name counts as used when the module references it anywhere (as a name or
the root of an attribute chain), lists it in ``__all__``, or names it inside
a string annotation. ``from __future__`` imports and ``*`` imports are not
checked.
"""

import ast
import re
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


def enum_classes(source: str) -> set[str]:
    """The classes a module defines with ``Enum`` or ``enum.Enum`` among
    their bases (an enum with members cannot be subclassed further)."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(
            (isinstance(base, ast.Name) and base.id == "Enum")
            or (isinstance(base, ast.Attribute) and base.attr == "Enum")
            for base in node.bases
        )
    }


# Modules on the campaign's and the report's per-item paths, and the enums
# whose members they must compare against as module globals: every enum
# that src/ defines. An attribute lookup of a member goes through the enum
# metaclass on every call.
HOT_MODULES = (
    "analytics", "eventlog", "orchestrator", "platform", "simulator", "strategy", "targeting",
)
ENUMS = {
    name
    for path in sorted((ROOT / "src").rglob("*.py"))
    for name in enum_classes(path.read_text(encoding="utf-8"))
}


def test_enum_classes_are_detected():
    source = (
        "import enum\n"
        "class A(str, Enum): pass\n"
        "class B(enum.Enum):\n"
        "    class C(Enum): pass\n"
        "class D(str): pass\n"
        "class E(EnumType): pass\n"
    )
    assert enum_classes(source) == {"A", "B", "C"}
    assert {"AdmitResult", "EventKind", "ItemKind", "LabelValue", "MessageKind", "TargetAuthor"} <= ENUMS


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


# The one place that decides how YAML is parsed: model.load_yaml and the
# loader it uses.
YAML_LOADING = {"model": {"load_yaml", "_LOADER"}}
YAML_LOADS = ("load", "safe_load")


def _yaml_names(node: ast.AST):
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "yaml":
        yield f"yaml.{node.attr}" if node.attr in YAML_LOADS else node.attr
    elif isinstance(node, ast.ImportFrom) and node.module == "yaml":
        for alias in node.names:
            yield f"yaml.{alias.name}" if alias.name in YAML_LOADS else alias.name
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Constant) and str(node.value).endswith("SafeLoader"):
        yield node.value  # getattr(yaml, "SafeLoader")


def yaml_loading(source: str, allowed=frozenset()) -> list[tuple[int, str]]:
    """(line, name) of each use of ``yaml.load`` or ``yaml.safe_load`` and of
    each name ending in ``SafeLoader``, outside the top-level definitions
    named in ``allowed``."""
    found = set()
    for top in ast.parse(source).body:
        targets = getattr(top, "targets", [top])
        if {getattr(t, "id", getattr(t, "name", None)) for t in targets} & allowed:
            continue
        for node in ast.walk(top):
            for name in _yaml_names(node):
                if name.startswith("yaml.") or name.endswith("SafeLoader"):
                    found.add((node.lineno, name))
    return sorted(found)


def test_yaml_loading_outside_the_allowed_definitions_is_detected():
    source = (
        "import yaml\n"
        "from yaml import safe_load, dump\n"
        "LOADER = getattr(yaml, 'CSafeLoader', yaml.SafeLoader)\n"
        "def load_yaml(text):\n"
        "    return yaml.load(text, Loader=LOADER)\n"
        "def other(fh):\n"
        "    yaml.safe_dump({}, fh)\n"
        "    return yaml.safe_load(fh), CSafeLoader\n"
    )
    assert yaml_loading(source, {"LOADER", "load_yaml"}) == [
        (2, "yaml.safe_load"), (8, "CSafeLoader"), (8, "yaml.safe_load"),
    ]
    assert yaml_loading(source) == [
        (2, "yaml.safe_load"), (3, "CSafeLoader"), (3, "SafeLoader"), (5, "yaml.load"),
        (8, "CSafeLoader"), (8, "yaml.safe_load"),
    ]


def test_only_model_load_yaml_loads_yaml():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, name in yaml_loading(
            path.read_text(encoding="utf-8"), YAML_LOADING.get(path.stem, frozenset())
        )
    ]
    assert offenders == []


# The one module that encodes and decodes with orjson: the event log, whose
# writer and reader share it. Label files and everything else keep the
# stdlib codec.
ORJSON_IMPORTERS = {"eventlog"}


def imports_of(source: str, module: str) -> list[int]:
    """Line of each absolute ``import`` or ``from … import`` of the module or
    of a submodule or name in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            found.add(node.lineno)
    return sorted(found)


def test_orjson_imports_are_detected():
    source = (
        "import json, orjson\n"
        "from orjson import loads\n"
        "import orjsonish\n"
        "from .eventlog import orjson\n"
    )
    assert imports_of(source, "orjson") == [1, 2]


def test_only_eventlog_imports_orjson():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        if path.stem not in ORJSON_IMPORTERS
        for line in imports_of(path.read_text(encoding="utf-8"), "orjson")
    ]
    assert offenders == []
    assert imports_of((ROOT / "src" / "campaignkit" / "eventlog.py").read_text(encoding="utf-8"), "orjson")


# One encoder per format: the event log is written by orjson and everything
# else by ``json.dumps``, so no module builds JSON from ``json.encoder``'s
# pieces by hand.
def test_json_encoder_imports_are_detected():
    source = (
        "import json\n"
        "from json.encoder import encode_basestring\n"
        "import json.encoder\n"
        "from json import encoder, dumps\n"
        "from json import dumps\n"
        "from .json.encoder import x\n"
    )
    assert imports_of(source, "json.encoder") == [2, 3, 4]


def test_nothing_in_src_imports_from_json_encoder():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in imports_of(path.read_text(encoding="utf-8"), "json.encoder")
    ]
    assert offenders == []


def function_imports(source: str) -> list[tuple[int, str]]:
    """(line, function) of each import inside a function body; module-level
    imports, those under ``if TYPE_CHECKING:`` included, are not bodies."""
    return sorted(
        (sub.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
    )


def test_imports_in_function_bodies_are_detected():
    source = (
        "import math\n"
        "if TYPE_CHECKING:\n"
        "    from .simulator import AgentPopulation\n"
        "def f():\n"
        "    import json\n"
        "class C:\n"
        "    def g(self):\n"
        "        if True:\n"
        "            from .eventlog import replay\n"
    )
    assert function_imports(source) == [(5, "f"), (9, "g")]


def test_no_function_body_in_src_imports():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, name in function_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


# The simulated platform draws through the forms the tests check against the
# stdlib calls they reproduce (``simulator.draw_index``, ``draw_exponential``
# and ``draw_uniform``), never through the calls themselves.
DRAW_MODULES = ("platform", "simulator")
STDLIB_DRAWS = {"choice", "uniform", "expovariate"}


def stdlib_draws(source: str) -> list[tuple[int, str]]:
    """(line, name) of each call of ``choice``, ``uniform`` or ``expovariate``,
    as a method or a bare name, inside a function body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    name = getattr(sub.func, "attr", getattr(sub.func, "id", None))
                    if name in STDLIB_DRAWS:
                        found.add((sub.lineno, name))
    return sorted(found)


def test_stdlib_draws_in_function_bodies_are_detected():
    source = (
        "import random\n"
        "FIRST = random.choice([1, 2])\n"
        "def f(rng, seq):\n"
        "    i = draw_index(rng, len(seq))\n"
        "    return seq[i], rng.choices(seq), rng.choice(seq)\n"
        "class C:\n"
        "    def g(self):\n"
        "        gap = lambda rate: self.rng.expovariate(rate)\n"
        "        return uniform(0, 1) + gap(2.0)\n"
    )
    assert stdlib_draws(source) == [(5, "choice"), (8, "expovariate"), (9, "uniform")]


def test_simulated_platform_draws_through_parity_tested_forms():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name in DRAW_MODULES
        for path in [ROOT / "src" / "campaignkit" / f"{name}.py"]
        for line, name in stdlib_draws(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def _keyword_is(call: ast.Call, name: str, value: bool) -> bool:
    return any(
        k.arg == name and isinstance(k.value, ast.Constant) and k.value.value is value
        for k in call.keywords
    )


def slow_frozen_records(source: str) -> list[tuple[int, str]]:
    """(line, class) of each ``@dataclass(frozen=True, slots=True)`` class
    that is not decorated with ``slot_init`` or does not declare
    ``init=False``: it would be built by the frozen dataclass ``__init__``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        names = {getattr(d, "id", None) for d in node.decorator_list}
        for d in node.decorator_list:
            if (
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                and _keyword_is(d, "frozen", True) and _keyword_is(d, "slots", True)
                and ("slot_init" not in names or not _keyword_is(d, "init", False))
            ):
                found.append((node.lineno, node.name))
    return found


def test_frozen_records_outside_slot_init_are_detected():
    source = (
        "@slot_init\n@dataclass(frozen=True, slots=True, init=False)\nclass Fast:\n    x: int\n"
        "@dataclass(frozen=True, slots=True)\nclass Slow:\n    x: int\n"
        "@slot_init\n@dataclass(frozen=True, slots=True)\nclass Twice:\n    x: int\n"
        "@dataclass(init=False, frozen=True, slots=True)\nclass Bare:\n    x: int\n"
        "@dataclass(frozen=True)\nclass Config:\n    x: int\n"
        "@dataclass(slots=True)\nclass Agent:\n    x: int\n"
    )
    assert slow_frozen_records(source) == [(6, "Slow"), (10, "Twice"), (13, "Bare")]


def test_every_frozen_slotted_record_in_src_is_built_by_slot_init():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, name in slow_frozen_records(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


# The one writer of a conversation record: ``CampaignState.apply``, which
# folds the log, so a record holds what the log says. Elsewhere in src/ its
# fields are read, never stored to or changed in place.
RECORD_FIELDS = {"members", "sent_messages", "used_followups", "closed"}
MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "pop", "remove", "sort", "update"}


def _stored(target: ast.expr):
    """The expressions an assignment target stores into or deletes from."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _stored(elt)
    elif isinstance(target, ast.Starred):
        yield from _stored(target.value)
    else:
        yield target.value if isinstance(target, ast.Subscript) else target


def record_writes(source: str) -> list[tuple[int, str]]:
    """(line, field) of each store to, deletion from or mutating method call
    on an attribute named like a field of a conversation record."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            written = [t for target in node.targets for t in _stored(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            written = list(_stored(node.target))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
            written = [node.func.value]
        else:
            continue
        found.update(
            (node.lineno, w.attr) for w in written
            if isinstance(w, ast.Attribute) and w.attr in RECORD_FIELDS
        )
    return sorted(found)


def test_record_writes_are_detected():
    source = (
        "class ConversationRecord:\n"
        "    members: tuple = ()\n"
        "    closed: bool = False\n"
        "def f(record, state, send):\n"
        "    record.used_followups.add(3)\n"
        "    record.closed = True\n"
        "    state.records[c].sent_messages += ['m1']\n"
        "    a, record.members = 1, ()\n"
        "    record.sent_messages[0] = 'm2'\n"
        "    del record.used_followups\n"
        "    members = send.members\n"
        "    seen = {m for m in record.members}\n"
        "    seen.add(record.closed)\n"
        "    return len(record.used_followups), record.members.count('a')\n"
    )
    assert record_writes(source) == [
        (5, "used_followups"), (6, "closed"), (7, "sent_messages"), (8, "members"),
        (9, "sent_messages"), (10, "used_followups"),
    ]


def test_only_the_fold_writes_conversation_records():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        if path.stem != "eventlog"
        for line, name in record_writes(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


# The one builder of the report's indices: ``eventlog.validate_events``, for
# the state of a log that is read. The live run's state carries none, so the
# campaign loop never pays for an index it does not read.
REPORT_BUILDERS = {"eventlog": {"validate_events"}}


def _values(node: ast.AST):
    """The node and every node below it, leaving out annotations."""
    yield node
    for name, child in ast.iter_fields(node):
        if name in ("annotation", "returns"):
            continue
        for item in child if isinstance(child, list) else [child]:
            if isinstance(item, ast.AST):
                yield from _values(item)


def report_index_uses(source: str, allowed=frozenset()) -> list[int]:
    """Lines that use ``ReportIndex`` as a value, by name or attribute,
    outside the top-level definitions named in ``allowed``: a call builds
    one, and the class handed on can be called anywhere. Annotations and
    imports are not uses."""
    found = set()
    for top in ast.parse(source).body:
        if getattr(top, "name", None) in allowed:
            continue
        for node in _values(top):
            if getattr(node, "id", None) == "ReportIndex" or getattr(node, "attr", None) == "ReportIndex":
                found.add(node.lineno)
    return sorted(found)


def test_report_index_uses_are_detected():
    source = (
        "from .eventlog import ReportIndex\n"
        "class CampaignState:\n"
        "    report: Optional[ReportIndex] = None\n"
        "def validate_events(events):\n"
        "    return CampaignState(report=ReportIndex())\n"
        "def run(writer: 'ReportIndex') -> ReportIndex:\n"
        "    state = CampaignState(report=eventlog.ReportIndex())\n"
        "    make = field(default_factory=ReportIndex)\n"
        "    return state.report\n"
        "DEFAULT = ReportIndex\n"
    )
    assert report_index_uses(source, {"validate_events"}) == [7, 8, 10]
    assert report_index_uses(source) == [5, 7, 8, 10]


def test_only_validate_events_builds_the_report_index():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in report_index_uses(
            path.read_text(encoding="utf-8"), REPORT_BUILDERS.get(path.stem, frozenset())
        )
    ]
    assert offenders == []


# No knob that no caller sets: a defaulted parameter that no call passes
# is a second code path that nothing runs.
def defaulted_parameters(source: str) -> list[tuple[int, str, str, int | None, bool]]:
    """(line, function, parameter, position, by keyword) of each parameter
    with a default of each function or method, dunders aside. ``position``
    counts the arguments a call passes before it, so a method's ``self`` or
    ``cls`` is not counted; it is None for a keyword-only parameter."""
    tree = ast.parse(source)
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("__"):
            continue
        args = node.args
        bound = id(node) in methods and "staticmethod" not in {getattr(d, "id", None) for d in node.decorator_list}
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            found.append((node.lineno, node.name, positional[i].arg, i - bound, i >= len(args.posonlyargs)))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((node.lineno, node.name, arg.arg, None, True))
    return found


def calls_by_name(sources) -> dict[str, list[ast.Call]]:
    """Every call in the sources, by the name it calls, bare or as an attribute."""
    calls: dict[str, list[ast.Call]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, name: str, position, by_keyword: bool) -> bool:
    """Whether the call passes the parameter; ``*args`` passes every
    positional one and ``**kwargs`` every one a keyword can name."""
    if position is not None and (
        len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)
    ):
        return True
    return by_keyword and any(keyword.arg in (None, name) for keyword in call.keywords)


def unset_knobs(source: str, calls: dict[str, list[ast.Call]]) -> list[tuple[int, str]]:
    """(line, ``function(parameter)``) of each defaulted parameter that the
    source defines and that none of the calls to its function's name passes."""
    return [
        (line, f"{function}({name})")
        for line, function, name, position, by_keyword in defaulted_parameters(source)
        if not any(_passes(call, name, position, by_keyword) for call in calls.get(function, ()))
    ]


def test_unset_knobs_are_detected():
    source = (
        "def f(a, b=1, /, c=2, *, d=3, e):\n"
        "    return a\n"
        "class C:\n"
        "    def __init__(self, x=0): ...\n"
        "    def m(self, p=1, q=2): ...\n"
        "    @staticmethod\n"
        "    def s(p=1, q=2): ...\n"
        "    def k(self, r=1): ...\n"
        "def g(t=1): ...\n"
        "f(0, e=4)\n"
        "f(0, 1, c=2, e=4)\n"
        "C().m(0)\n"
        "C.s(0, 1)\n"
        "C().k(**{})\n"
        "g(*())\n"
    )
    assert unset_knobs(source, calls_by_name([source])) == [(1, "f(d)"), (5, "m(q)")]


def test_every_defaulted_parameter_in_src_is_passed_by_some_call():
    calls = calls_by_name(
        path.read_text(encoding="utf-8") for top in CHECKED for path in sorted((ROOT / top).rglob("*.py"))
    )
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {knob}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, knob in unset_knobs(path.read_text(encoding="utf-8"), calls)
    ]
    assert offenders == []


# No write-only record field: a field that nothing reads is a copy of a fact
# its neighbour already holds. The config records are exempt, since
# ``FieldCodec`` reads their fields through ``dataclasses.fields``.
def record_fields(source: str) -> list[tuple[int, str, str]]:
    """(line, class, field) of each field of each dataclass that does not
    derive from ``FieldCodec``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or "FieldCodec" in {getattr(b, "id", None) for b in node.bases}:
            continue
        if "dataclass" in {getattr(getattr(d, "func", d), "id", None) for d in node.decorator_list}:
            found.extend(
                (item.lineno, node.name, item.target.id) for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            )
    return found


def read_names(sources) -> set[str]:
    """Every attribute name the sources load, and every string constant."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def write_only_fields(source: str, read: set[str]) -> list[tuple[int, str]]:
    """(line, ``Class.field``) of each record field the source defines whose
    name is not in ``read``."""
    return [(line, f"{cls}.{name}") for line, cls, name in record_fields(source) if name not in read]


def test_write_only_fields_are_detected():
    source = (
        "@dataclass\nclass Target:\n    user: str\n    keyword: str\n    note: str = ''\n"
        "@dataclass(frozen=True)\nclass Config(FieldCodec):\n    unread: int = 0\n"
        "class Plain:\n    hidden: int = 0\n"
        "@slot_init\n@dataclass(frozen=True, slots=True, init=False)\nclass Meta:\n    solicits: bool\n"
        "def f(target, meta):\n"
        "    target.keyword = 'x'\n"
        "    return target.user, getattr(target, 'note')\n"
    )
    assert write_only_fields(source, read_names([source])) == [(4, "Target.keyword"), (14, "Meta.solicits")]


def test_no_record_field_in_src_is_write_only():
    sources = {path: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src").rglob("*.py"))}
    read = read_names(sources.values())
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {field}"
        for path, source in sources.items()
        for line, field in write_only_fields(source, read)
    ]
    assert offenders == []


# One writer mode: a file is read, or written afresh from its start. A log
# is never extended or cut in place; a resume writes a new file and
# replaces the log with it.
MODE = re.compile("[rwxabt+]+")


def in_place_writes(source: str) -> list[tuple[int, str]]:
    """(line, what) of each ``open`` call, bare or as a method, given a
    string that reads as a mode holding ``a`` or ``+`` (positionally, in any
    branch of an expression, or as ``mode=``), and of each ``truncate`` call."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "truncate":
            found.add((node.lineno, "truncate"))
        elif name == "open":
            arguments = node.args + [k.value for k in node.keywords if k.arg == "mode"]
            for sub in (sub for arg in arguments for sub in ast.walk(arg)):
                mode = sub.value if isinstance(sub, ast.Constant) else None
                if isinstance(mode, str) and MODE.fullmatch(mode) and ("a" in mode or "+" in mode):
                    found.add((node.lineno, f"open {mode!r}"))
    return sorted(found)


def test_in_place_writes_are_detected():
    source = (
        "import os\n"
        "fh = open(path, 'ab' if append else 'wb')\n"
        "with open(path, 'rb+') as fh:\n"
        "    fh.truncate(keep)\n"
        "Path(path).open('a')\n"
        "open(path, mode='w+', encoding='utf-8')\n"
        "open(path, 'rb'), open('a.log', 'w'), open(path)\n"
        "os.open(directory, os.O_RDONLY)\n"
        "os.truncate(path, 0)\n"
    )
    assert in_place_writes(source) == [
        (2, "open 'ab'"), (3, "open 'rb+'"), (4, "truncate"), (5, "open 'a'"), (6, "open 'w+'"), (9, "truncate"),
    ]


def test_the_log_has_one_writer_mode():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, what in in_place_writes(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
