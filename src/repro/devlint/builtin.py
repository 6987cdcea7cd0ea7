"""The built-in RL rule set: the codebase's contracts, statically.

Four families, mirroring the runtime contracts PRs 4–6 introduced:

* **RL1xx durability** — artifact writes must go through
  :mod:`repro.resilience.durable`; renames must be crash-safe; session
  paths come from the session constants.
* **RL2xx determinism** — canonical output paths must not depend on
  set iteration order, wall clocks, or lossy float formatting.
* **RL3xx observability** — metric names are declared in
  :mod:`repro.obs.registry` and emitted; CLI handlers publish spans.
* **RL4xx fault handling** — choke-point code must not swallow
  injected faults.

Rules are deliberately syntactic: no imports are executed, no type
inference beyond same-class/same-function assignment tracking.  False
positives are handled with ``# devlint: ignore[RLxxx]`` plus a
justification, and the engine errors on stale suppressions.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.diagnostics import Severity

from repro.devlint.context import DevContext, SourceModule
from repro.devlint.rules import DevFinding, devrule

# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of a call target (``os.replace``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


def _walk_with_parents(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, Optional[ast.AST]]]:
    stack: List[Tuple[ast.AST, Optional[ast.AST]]] = [(tree, None)]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        for child in ast.iter_child_nodes(node):
            stack.append((child, node))


def _docstring_nodes(tree: ast.Module) -> Set[int]:
    """ids of every ``Constant`` node that is a docstring."""
    ids: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                ids.add(id(body[0].value))
    return ids


def _functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.FunctionDef, Optional[ast.ClassDef]]]:
    """Every function definition, with its enclosing class (if any)."""

    def visit(
        node: ast.AST, enclosing: Optional[ast.ClassDef]
    ) -> Iterator[Tuple[ast.FunctionDef, Optional[ast.ClassDef]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, enclosing  # type: ignore[misc]
                yield from visit(child, enclosing)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            else:
                yield from visit(child, enclosing)

    yield from visit(tree, None)


#: Function names whose output is part of a canonical / serialized
#: surface (``format_*`` report renderers are deliberately out of
#: scope: they produce human displays, not round-trippable artifacts).
#: RL201 (ordering) adds merge/snapshot on top of the serializer names
#: RL203 (float repr) uses.
_SERIALIZER_NAME = re.compile(
    r"(^|_)(to_payload|to_json|to_dict|to_text|serializ\w*|dump|dumps|"
    r"save|write|canonical|integrity|checksum)(_|$)"
)
_CANONICAL_NAME = re.compile(
    r"(^|_)(to_payload|to_json|to_dict|to_text|serializ\w*|dump|dumps|"
    r"save|write|canonical|integrity|checksum|merge|snapshot)(_|$)"
)


# ---------------------------------------------------------------------------
# RL1xx — durability
# ---------------------------------------------------------------------------
_WRITE_MODE = re.compile(r"[wax+]")


def _call_mode(call: ast.Call, position: int) -> Optional[str]:
    """The literal mode argument of an ``open``-style call, if any."""
    if len(call.args) > position:
        node = call.args[position]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            value = keyword.value
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                return value.value
            return None
    return "r"


@devrule(
    "RL101",
    "raw-artifact-write",
    Severity.WARNING,
    "File opened for writing outside repro.resilience.durable; a crash "
    "mid-write can leave a torn artifact behind",
)
def check_raw_artifact_write(
    module: SourceModule, context: DevContext
) -> Iterator[DevFinding]:
    if module.tree is None or module.name_matches("resilience/durable.py"):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _call_mode(node, 1)
        elif isinstance(func, ast.Attribute) and func.attr == "fdopen":
            mode = _call_mode(node, 1)
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            mode = "w"
        else:
            continue
        if mode is None or not _WRITE_MODE.search(mode):
            continue
        yield DevFinding(
            message=(
                "raw write-mode file operation bypasses the durability "
                "contract (torn on crash)"
            ),
            module=module,
            line=node.lineno,
            fixit=(
                "route the write through repro.resilience.durable."
                "durable_write / durable_stream_writer, or suppress "
                "with a justification if this sink manages its own "
                "fsync discipline"
            ),
        )


@devrule(
    "RL102",
    "rename-without-fsync",
    Severity.WARNING,
    "os.replace/os.rename in a function with no fsync: the rename may "
    "not survive a crash (and the source may be torn)",
)
def check_rename_without_fsync(
    module: SourceModule, context: DevContext
) -> Iterator[DevFinding]:
    if module.tree is None or module.name_matches("resilience/durable.py"):
        return
    for function, _ in _functions(module.tree):
        renames: List[ast.Call] = []
        has_fsync = False
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name in ("os.replace", "os.rename"):
                    renames.append(node)
                elif name.endswith("fsync") or name.endswith(
                    "fsync_directory"
                ):
                    has_fsync = True
        if has_fsync:
            continue
        for call in renames:
            yield DevFinding(
                message=(
                    "rename without the sibling-temp + fsync pattern; "
                    "the move may be lost or expose a torn source "
                    "after a crash"
                ),
                module=module,
                line=call.lineno,
                fixit=(
                    "write a temp sibling, fsync it, os.replace, then "
                    "fsync the parent directory — or call "
                    "repro.resilience.durable.durable_write"
                ),
            )


_SESSION_LITERALS = {
    "checkpoint.json": "CHECKPOINT_NAME",  # devlint: ignore[RL103]
    ".prev": "PREVIOUS_SUFFIX",  # devlint: ignore[RL103]
    "wal": "WAL_DIRECTORY",  # devlint: ignore[RL103]
}


@devrule(
    "RL103",
    "session-path-literal",
    Severity.WARNING,
    "Journal/checkpoint path component hardcoded outside the session "
    "helpers; layout changes would silently diverge",
)
def check_session_path_literal(
    module: SourceModule, context: DevContext
) -> Iterator[DevFinding]:
    if module.tree is None or module.in_resilience:
        return
    docstrings = _docstring_nodes(module.tree)
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in _SESSION_LITERALS
            and id(node) not in docstrings
        ):
            constant = _SESSION_LITERALS[node.value]
            yield DevFinding(
                message=(
                    f"session path component {node.value!r} constructed "
                    "outside repro.resilience"
                ),
                module=module,
                line=node.lineno,
                fixit=(
                    f"import {constant} from repro.resilience.durable "
                    "(re-exported by repro.resilience.session)"
                ),
            )


# ---------------------------------------------------------------------------
# RL2xx — determinism
# ---------------------------------------------------------------------------
_ORDER_INSENSITIVE_SINKS = {
    "set",
    "frozenset",
    "sorted",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "len",
    "Counter",
    "collections.Counter",
}


def _local_set_names(function: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            annotation = _dotted(node.annotation)
            if annotation.lower().endswith(("set", "frozenset")) or (
                node.value is not None and _is_set_expr(node.value)
            ):
                names.add(node.target.id)
    return names


def _class_set_attrs(cls: Optional[ast.ClassDef]) -> Set[str]:
    attrs: Set[str] = set()
    if cls is None:
        return attrs
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
    return attrs


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _dotted(node.func) in (
        "set",
        "frozenset",
    )


def _unordered_iterable(
    node: ast.AST, local_sets: Set[str], attr_sets: Set[str]
) -> Optional[str]:
    """Describe why iterating ``node`` has unstable order, or ``None``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name in ("set", "frozenset"):
            return f"{name}(...)"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("values", "keys")
            and not node.args
            and not node.keywords
        ):
            return f".{node.func.attr}()"
        return None
    if isinstance(node, ast.Name) and node.id in local_sets:
        return f"the set variable {node.id!r}"
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in attr_sets
    ):
        return f"the set attribute self.{node.attr}"
    return None


@devrule(
    "RL201",
    "unsorted-collection-order",
    Severity.WARNING,
    "Canonical-output code iterates a set (or dict view) without "
    "sorted(); serialization/merge order becomes run-dependent",
)
def check_unsorted_collection_order(
    module: SourceModule, context: DevContext
) -> Iterator[DevFinding]:
    if module.tree is None:
        return
    for function, enclosing in _functions(module.tree):
        if not _CANONICAL_NAME.search(function.name):
            continue
        local_sets = _local_set_names(function)
        attr_sets = _class_set_attrs(enclosing)
        parents: Dict[int, ast.AST] = {}
        for node, parent in _walk_with_parents(function):
            if parent is not None:
                parents[id(node)] = parent
        for node in ast.walk(function):
            sites: List[ast.expr] = []
            comp: Optional[ast.AST] = None
            if isinstance(node, ast.For):
                sites = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.GeneratorExp)
            ):
                comp = node
                sites = [gen.iter for gen in node.generators]
            else:
                continue
            if comp is not None and _order_insensitive(comp, parents):
                continue
            for site in sites:
                reason = _unordered_iterable(
                    site, local_sets, attr_sets
                )
                if reason is None:
                    continue
                yield DevFinding(
                    message=(
                        f"{function.name} iterates {reason} into an "
                        "order-sensitive result without sorted()"
                    ),
                    module=module,
                    line=site.lineno,
                    fixit=(
                        "wrap the iterable in sorted(...) (or feed an "
                        "order-insensitive sink such as "
                        "set/sum/Counter)"
                    ),
                )


def _order_insensitive(
    comp: ast.AST, parents: Dict[int, ast.AST]
) -> bool:
    parent = parents.get(id(comp))
    return (
        isinstance(parent, ast.Call)
        and comp in parent.args
        and _dotted(parent.func) in _ORDER_INSENSITIVE_SINKS
    )


_WALL_CLOCK_CALLS = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.now": "datetime.now()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
}
_SEEDABLE_RANDOM = {"Random", "SystemRandom", "seed"}


@devrule(
    "RL202",
    "uninjected-clock-or-random",
    Severity.WARNING,
    "Wall clock or module-level random in library code; use the "
    "injected clock (repro.resilience.faults.now) and seeded "
    "random.Random instances",
)
def check_uninjected_clock_or_random(
    module: SourceModule, context: DevContext
) -> Iterator[DevFinding]:
    # faults.py *is* the clock authority (it wraps time.time with the
    # planned skew); everything else injects through it.
    if module.tree is None or module.name_matches(
        "resilience/faults.py"
    ):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name in _WALL_CLOCK_CALLS:
            yield DevFinding(
                message=(
                    f"{_WALL_CLOCK_CALLS[name]} reads the wall clock "
                    "directly; canonical outputs and tests cannot "
                    "control it"
                ),
                module=module,
                line=node.lineno,
                fixit=(
                    "use repro.resilience.faults.now() (skew-aware, "
                    "fault-injectable) or take a clock parameter"
                ),
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "random"
            and node.func.attr not in _SEEDABLE_RANDOM
        ):
            yield DevFinding(
                message=(
                    f"module-level random.{node.func.attr}() draws "
                    "from shared unseeded state"
                ),
                module=module,
                line=node.lineno,
                fixit=(
                    "construct a seeded random.Random(seed) instance "
                    "and draw from it"
                ),
            )


_FLOAT_SPEC = re.compile(r"[0-9.,]*[geEfFG%n]$")


@devrule(
    "RL203",
    "lossy-float-format",
    Severity.WARNING,
    "Float formatted with a lossy presentation spec inside a "
    "serializer; round-trips silently lose precision",
)
def check_lossy_float_format(
    module: SourceModule, context: DevContext
) -> Iterator[DevFinding]:
    if module.tree is None:
        return
    for function, _ in _functions(module.tree):
        if not _SERIALIZER_NAME.search(function.name):
            continue
        for node in ast.walk(function):
            spec: Optional[str] = None
            line = 0
            if isinstance(node, ast.FormattedValue) and isinstance(
                node.format_spec, ast.JoinedStr
            ):
                parts = [
                    value.value
                    for value in node.format_spec.values
                    if isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ]
                spec = "".join(parts)
                line = node.lineno
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "format"
                and len(node.args) == 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                spec = node.args[1].value
                line = node.lineno
            if spec is None or not _FLOAT_SPEC.search(spec):
                continue
            yield DevFinding(
                message=(
                    f"{function.name} formats a float with "
                    f"{spec!r}; the serialized value is lossy and "
                    "round-trip-unstable"
                ),
                module=module,
                line=line,
                fixit=(
                    "apply the explicit repr policy (integral floats "
                    "as int, everything else as repr(float(v))) like "
                    "repro.logs.codec._format_time"
                ),
            )


# ---------------------------------------------------------------------------
# RL3xx — observability
# ---------------------------------------------------------------------------
_EMIT_METHODS = ("count", "gauge", "observe")


@devrule(
    "RL301",
    "unregistered-metric",
    Severity.WARNING,
    "Metric name emitted in code but missing from the declared "
    "registry (repro.obs.registry)",
)
def check_unregistered_metric(
    module: SourceModule, context: DevContext
) -> Iterator[DevFinding]:
    if module.tree is None or module.name_matches("obs/registry.py"):
        return
    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _EMIT_METHODS
            and node.args
        ):
            continue
        first = node.args[0]
        if not (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value.startswith("repro_")
        ):
            continue
        if first.value in context.registry_names:
            continue
        yield DevFinding(
            message=(
                f"metric {first.value!r} is emitted here but not "
                "declared in repro.obs.registry.DECLARED_METRICS"
            ),
            module=module,
            line=node.lineno,
            fixit=(
                "add a MetricSpec for it to DECLARED_METRICS (and "
                "regenerate the docs/OBSERVABILITY.md tables)"
            ),
        )


@devrule(
    "RL302",
    "unemitted-metric",
    Severity.WARNING,
    "Metric declared (or documented) but emitted nowhere in the "
    "scanned tree; the registry/doc has drifted from the code",
    scope="project",
)
def check_unemitted_metric(
    context: DevContext,
) -> Iterator[DevFinding]:
    # Meaningful only for whole-package scans (or fixture runs that
    # inject their own registry); a subtree scan must not report every
    # metric of the unscanned remainder as missing.
    if not (
        context.scans_obs_package or context.has_explicit_registry
    ):
        return
    emitted = context.metric_tokens
    for name in sorted(context.registry_names - emitted):
        yield DevFinding(
            message=(
                f"metric {name!r} is declared in the registry but no "
                "scanned module references it"
            ),
            fixit=(
                "emit it through a recorder, or retire the "
                "declaration (a breaking change — call it out in the "
                "changelog)"
            ),
        )
    doc_names = _documented_metric_names(context)
    if doc_names is not None:
        for name in sorted(doc_names - set(context.registry_names)):
            yield DevFinding(
                message=(
                    f"metric {name!r} is documented in "
                    "docs/OBSERVABILITY.md but not declared in the "
                    "registry"
                ),
                fixit=(
                    "regenerate the doc tables from "
                    "repro.obs.registry.render_metrics_markdown()"
                ),
            )


def _documented_metric_names(
    context: DevContext,
) -> Optional[Set[str]]:
    if context.project_root is None:
        return None
    doc = context.project_root / "docs" / "OBSERVABILITY.md"
    try:
        text = doc.read_text(encoding="utf-8")
    except OSError:
        return None
    return set(re.findall(r"\brepro_[a-z0-9_]+_total\b", text)) | set(
        re.findall(r"\brepro_[a-z0-9_]+\b(?=`)", text)
    )


@devrule(
    "RL303",
    "cli-handler-without-span",
    Severity.WARNING,
    "CLI subcommand handler obtains a recorder but never opens a "
    "span; its work is invisible in the run manifest",
)
def check_cli_handler_without_span(
    module: SourceModule, context: DevContext
) -> Iterator[DevFinding]:
    if module.tree is None:
        return
    for function, _ in _functions(module.tree):
        if not function.name.startswith("_cmd_"):
            continue
        uses_recorder = False
        opens_span = False
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name == "_metrics_recorder":
                    uses_recorder = True
                elif name.endswith(".span"):
                    opens_span = True
        if uses_recorder and not opens_span:
            yield DevFinding(
                message=(
                    f"{function.name} creates a metrics recorder but "
                    "opens no span; the manifest will carry no timing "
                    "for this command"
                ),
                module=module,
                line=function.lineno,
                fixit=(
                    "wrap the command's work in "
                    "`with recorder.span(...)` before the manifest "
                    "snapshot"
                ),
            )


# ---------------------------------------------------------------------------
# RL4xx — fault handling
# ---------------------------------------------------------------------------
def _is_choke_point(module: SourceModule) -> bool:
    return module.in_resilience or "maybe_fault" in module.source


@devrule(
    "RL403",
    "fault-swallowing-except",
    Severity.WARNING,
    "Broad except in choke-point code with no re-raise; injected "
    "faults (InjectedIOError) and real I/O errors vanish silently",
)
def check_fault_swallowing_except(
    module: SourceModule, context: DevContext
) -> Iterator[DevFinding]:
    if module.tree is None or not _is_choke_point(module):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad_handler(node.type):
            continue
        if any(
            isinstance(inner, ast.Raise)
            for stmt in node.body
            for inner in ast.walk(stmt)
        ):
            continue
        yield DevFinding(
            message=(
                "broad except swallows exceptions in fault-injection "
                "choke-point code; an InjectedIOError would vanish "
                "here"
            ),
            module=module,
            line=node.lineno,
            fixit=(
                "catch the specific exceptions this block can "
                "produce, re-raise after handling, or suppress with "
                "a justification for deliberate supervision"
            ),
        )


def _is_broad_handler(node: Optional[ast.expr]) -> bool:
    if node is None:
        return True
    if isinstance(node, ast.Name) and node.id == "Exception":
        return True
    if isinstance(node, ast.Tuple):
        return any(_is_broad_handler(element) for element in node.elts)
    return False


__all__: Sequence[str] = ()
