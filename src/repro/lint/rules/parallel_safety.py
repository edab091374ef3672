"""Parallel-safety rules: worker envelopes stay frozen and picklable.

The process pool of :mod:`repro.parallel` ships work to workers as
envelope dataclasses: a ``BatchChunk``, ``CellTask`` or ``CheckShard``,
inside the ``WorkerTask`` that carries the engine recipe to the one worker
entry.  Envelopes cross a pickle boundary, and a worker keys its engine
cache by the hashed recipe, so two properties are load-bearing: they must
be **frozen** (a worker mutating its envelope would silently diverge from
the parent's copy and from the replayed serial run), and their fields
must be **statically picklable** (a ``list`` field pickles, but lets a
worker accumulate state that never returns; a callable or lock may not
pickle at all — and fails only on the platforms that spawn rather than
fork).

``envelope-frozen``
    Classes named ``*Chunk`` / ``*Shard`` / ``*Task`` must be decorated
    ``@dataclass(frozen=True)``.
``envelope-fields``
    Their field annotations must avoid the denied atoms
    (:data:`DENIED_FIELD_ATOMS`): mutable containers (``list``, ``dict``,
    ``set``, ``bytearray``), ``Callable``, ``Any``, RNG and lock objects.
    They must also avoid the packed-batch atoms
    (:data:`DENIED_BATCH_ATOMS`): a :class:`~repro.vec.PackedBlock`, a
    :class:`~repro.vec.BatchSyncEvaluator` or its interned
    :class:`~repro.vec.LaneStates` must never be shipped across the pool —
    shards carry the ``vectorized`` flag and rebuild the block, the
    evaluator and its transition and oracle-mask caches locally from the
    spec, which is what keeps sharded reports byte-identical to the serial
    run and keeps arbitrary-precision lane masks and cache contents out of
    the pickle payload.
    Compound annotations (``tuple[...]``, unions, string forward
    references) are unfolded and every atom checked.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import register_rule
from ..index import ModuleFile, ModuleIndex

__all__ = ["DENIED_BATCH_ATOMS", "DENIED_FIELD_ATOMS", "ENVELOPE_SUFFIXES"]

#: Class-name suffixes marking a process-pool work envelope.
ENVELOPE_SUFFIXES = ("Chunk", "Shard", "Task")

#: Annotation atoms an envelope field must not use.
DENIED_FIELD_ATOMS = frozenset(
    {
        "list",
        "List",
        "dict",
        "Dict",
        "set",
        "Set",
        "bytearray",
        "Callable",
        "Any",
        "Random",
        "Lock",
        "RLock",
        "Queue",
        "Generator",
        "Iterator",
    }
)

#: Packed-batch atoms an envelope field must not ship across the pool.
#: All three types pickle, but by design each shard rebuilds them (and the
#: evaluator's caches) locally from the spec — the envelope carries only the
#: ``vectorized`` flag.
DENIED_BATCH_ATOMS = frozenset({"PackedBlock", "BatchSyncEvaluator", "LaneStates"})


def _is_envelope(klass: ast.ClassDef) -> bool:
    return klass.name.endswith(ENVELOPE_SUFFIXES)


def _frozen_dataclass(klass: ast.ClassDef) -> bool:
    for decorator in klass.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def _annotation_atoms(annotation: ast.expr) -> Iterator[str]:
    """The name atoms of an annotation, with string forward refs unfolded."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_atoms(parsed.body)


def _envelope_findings(module: ModuleFile) -> Iterator[tuple[str, int, str]]:
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.ClassDef) and _is_envelope(node)):
            continue
        if not _frozen_dataclass(node):
            yield (
                "envelope-frozen",
                node.lineno,
                f"envelope {node.name} must be @dataclass(frozen=True); a "
                "worker mutating its envelope diverges from the parent's "
                "copy and from the serial run it replays",
            )
        for statement in node.body:
            if not (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            ):
                continue
            atoms = set(_annotation_atoms(statement.annotation))
            denied = sorted(atoms & DENIED_FIELD_ATOMS)
            if denied:
                yield (
                    "envelope-fields",
                    statement.lineno,
                    f"envelope field {node.name}.{statement.target.id} is "
                    f"annotated with {', '.join(denied)}; envelope fields "
                    "must be frozen, statically-picklable types (tuples, "
                    "frozensets, primitives, frozen dataclasses)",
                )
            batch = sorted(atoms & DENIED_BATCH_ATOMS)
            if batch:
                yield (
                    "envelope-fields",
                    statement.lineno,
                    f"envelope field {node.name}.{statement.target.id} ships "
                    f"a packed batch ({', '.join(batch)}) across the pool; "
                    "shards carry the `vectorized` flag and rebuild the "
                    "block, evaluator and caches locally, keeping lane masks "
                    "and cache contents out of the pickle payload",
                )


@register_rule(
    "envelope-frozen",
    group="parallel-safety",
    summary="worker envelopes (*Chunk/*Shard/*Task) are frozen dataclasses",
)
def _check_envelope_frozen(index: ModuleIndex) -> Iterator[tuple[str, int, str]]:
    for module in index:
        for rule_id, line, message in _envelope_findings(module):
            if rule_id == "envelope-frozen":
                yield (module.relpath, line, message)


@register_rule(
    "envelope-fields",
    group="parallel-safety",
    summary="envelope fields carry only statically-picklable immutable types",
)
def _check_envelope_fields(index: ModuleIndex) -> Iterator[tuple[str, int, str]]:
    for module in index:
        for rule_id, line, message in _envelope_findings(module):
            if rule_id == "envelope-fields":
                yield (module.relpath, line, message)
