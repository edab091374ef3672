"""Registry-consistency rules: the string-keyed tables stay auditable.

Everything the CLI, the serve daemon and the stored records name by string —
algorithms, schedules, conditions, adversaries — flows through a decorator
into a registry.  That indirection is only trustworthy while registration
sites are statically legible (literal names, literal backend sets), mutants
stay out of import time, and the namespaces that share a CLI flag stay
disjoint.

``registry-entry``
    Every ``register_*`` decorator/call takes a non-empty **string literal**
    name (a computed name makes the registry un-greppable), no two sites
    register the same name through the same registrar, and
    ``register_algorithm`` declares its backends as a literal tuple/list of
    known backend names (:data:`KNOWN_BACKENDS`).
``mutant-registration``
    Mutants are opt-in: :func:`repro.check.mutants.register_mutants` (and
    direct ``ALGORITHMS.add`` calls) must never execute at module import
    time, or every consumer of ``available_algorithms()`` would see the
    deliberately broken variants.
``adversary-namespace``
    The async and net adversary namespaces share the ``--adversary`` flag;
    a name registered in both would be silently ambiguous.  Registration
    sites are classified with
    :data:`repro.api.namespaces.ADVERSARY_REGISTRARS`, next to the table
    that lists each namespace at run time, and collisions are flagged at
    every site of the colliding name.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...api.namespaces import ADVERSARY_REGISTRARS
from ...api.spec import BACKENDS
from ..engine import register_rule
from ..index import ModuleIndex

__all__ = ["KNOWN_BACKENDS"]

#: The execution backends an algorithm entry may declare.
KNOWN_BACKENDS = frozenset(BACKENDS)


def _registrar_calls(index: ModuleIndex) -> Iterator[tuple[str, str, ast.Call]]:
    """Every ``register_*(...)`` call site: ``(relpath, registrar, call)``.

    Covers both decorator usage (``@register_algorithm(...)``) and direct
    calls; definitions of the registrars themselves are not calls and do not
    appear.
    """
    for module in index:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id.startswith("register_")
                and (node.args or node.keywords)
            ):
                yield module.relpath, node.func.id, node


def _literal_name(call: ast.Call) -> str | None:
    """The first positional argument when it is a non-empty string literal."""
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str) and value:
            return value
    return None


def _backends_argument(call: ast.Call) -> ast.expr | None:
    """``register_algorithm``'s backends expression (positional or keyword)."""
    if len(call.args) >= 2:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "backends":
            return keyword.value
    return None


@register_rule(
    "registry-entry",
    group="registry",
    summary="registration sites use literal names, unique per registrar, "
    "with known backends",
)
def _check_registry_entry(index: ModuleIndex) -> Iterator[tuple[str, int, str]]:
    first_site: dict[tuple[str, str], str] = {}
    for relpath, registrar, call in _registrar_calls(index):
        name = _literal_name(call)
        if name is None:
            yield (
                relpath,
                call.lineno,
                f"{registrar}(...) must take a non-empty string literal as "
                "the registry name; computed names make the registry "
                "un-auditable",
            )
            continue

        key = (registrar, name)
        if key in first_site:
            yield (
                relpath,
                call.lineno,
                f"{registrar} registers {name!r} twice (first at "
                f"{first_site[key]}); duplicate names raise RegistryError "
                "at import",
            )
        else:
            first_site[key] = f"{relpath}:{call.lineno}"

        if registrar != "register_algorithm":
            continue
        backends = _backends_argument(call)
        if backends is None:
            yield (
                relpath,
                call.lineno,
                f"register_algorithm({name!r}, ...) declares no backends; "
                "every entry must say where it runs",
            )
        elif not isinstance(backends, (ast.Tuple, ast.List)) or not backends.elts:
            yield (
                relpath,
                backends.lineno,
                f"register_algorithm({name!r}, ...) backends must be a "
                "non-empty literal tuple of backend names",
            )
        else:
            for element in backends.elts:
                value = element.value if isinstance(element, ast.Constant) else None
                if not (isinstance(value, str) and value in KNOWN_BACKENDS):
                    yield (
                        relpath,
                        element.lineno,
                        f"register_algorithm({name!r}, ...) declares an "
                        f"unknown backend; known backends: "
                        f"{', '.join(sorted(KNOWN_BACKENDS))}",
                    )


def _import_time_calls(tree: ast.Module) -> Iterator[ast.Call]:
    """Call nodes that execute when the module is imported.

    Everything reachable without entering a function or class-method body:
    module-level statements, including the bodies of top-level ``if`` /
    ``try`` / ``for`` blocks and class bodies (which also run at import).
    """
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if inner is not node:
                    skip.add(id(inner))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in skip:
            yield node


@register_rule(
    "mutant-registration",
    group="registry",
    summary="mutants are never registered at import time",
)
def _check_mutant_registration(index: ModuleIndex) -> Iterator[tuple[str, int, str]]:
    for module in index:
        for call in _import_time_calls(module.tree):
            if isinstance(call.func, ast.Name) and call.func.id == "register_mutants":
                yield (
                    module.relpath,
                    call.lineno,
                    "register_mutants() at import time exposes the broken "
                    "variants to every consumer of available_algorithms(); "
                    "mutants are opt-in per checker run",
                )
            elif (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "add"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "ALGORITHMS"
            ):
                yield (
                    module.relpath,
                    call.lineno,
                    "direct ALGORITHMS.add(...) at import time bypasses "
                    "register_algorithm; use the decorator so the entry is "
                    "statically auditable",
                )


@register_rule(
    "adversary-namespace",
    group="registry",
    summary="async and net adversary names stay disjoint (shared --adversary flag)",
)
def _check_adversary_namespace(index: ModuleIndex) -> Iterator[tuple[str, int, str]]:
    sites: dict[str, list[tuple[str, str, int]]] = {}
    for relpath, registrar, call in _registrar_calls(index):
        namespace = ADVERSARY_REGISTRARS.get(registrar)
        name = _literal_name(call)
        if namespace is None or name is None:
            continue
        sites.setdefault(name, []).append((namespace, relpath, call.lineno))

    for name, registrations in sorted(sites.items()):
        namespaces = {namespace for namespace, _, _ in registrations}
        if len(namespaces) < 2:
            continue
        for namespace, relpath, line in registrations:
            others = ", ".join(sorted(namespaces - {namespace}))
            yield (
                relpath,
                line,
                f"adversary {name!r} is registered in the {namespace} and "
                f"{others} namespaces; --adversary resolution would be "
                "ambiguous",
            )
