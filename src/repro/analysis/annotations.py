"""Checker: the strict-typing ratchet (rule ``strict-annotations``).

``mypy --strict`` runs in CI over a configured module set (see
``mypy.ini``), but mypy is an *optional* toolchain dependency — a bare
checkout must still be able to enforce the ratchet.  This checker is
the AST-level floor of the same contract, runnable anywhere: every
function in the strict set must annotate every parameter and its
return, and annotations must not use bare container generics
(``dict``/``list``/``set``/``tuple``/``frozenset`` with no element
type — the local mirror of mypy's ``disallow_any_generics``).

Growing the ratchet = adding a path to :data:`STRICT_SET` *and* the
``files`` line of ``mypy.ini``, then annotating until both passes are
clean.  Shrinking it is not a thing.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from repro.analysis.framework import Checker, Finding, ModuleInfo

#: repo-relative path prefixes (posix) under the strict-typing ratchet.
#: Keep in lockstep with the ``files`` entry of mypy.ini.
STRICT_SET: Tuple[str, ...] = (
    "src/repro/util/",
    "src/repro/storage/",
    "src/repro/obs/",
    "src/repro/analysis/",
    "src/repro/parallel/",
    "src/repro/core/engine.py",
    "src/repro/core/resilience.py",
    "src/repro/planner/cache.py",
    "src/repro/dynamic/wal.py",
    "src/repro/net/",
)

#: Builtin containers that need element types in annotations.
_BARE_GENERICS = {"dict", "list", "set", "tuple", "frozenset"}


def in_strict_set(rel: str) -> bool:
    return any(
        rel == entry or (entry.endswith("/") and rel.startswith(entry))
        for entry in STRICT_SET
    )


def _bare_generic_names(annotation: ast.expr) -> List[str]:
    """Bare ``dict``/``list``/... names used as a whole annotation or
    nested inside one (``Optional[dict]``), excluding subscripted uses
    (``Dict[str, int]`` / ``dict[str, int]``)."""
    bare: List[str] = []
    subscripted: Set[int] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Subscript) and isinstance(
            node.value, ast.Name
        ):
            subscripted.add(id(node.value))
    for node in ast.walk(annotation):
        if (
            isinstance(node, ast.Name)
            and node.id in _BARE_GENERICS
            and id(node) not in subscripted
        ):
            bare.append(node.id)
    return bare


class StrictAnnotationsChecker(Checker):
    rule = "strict-annotations"
    description = (
        "functions in the mypy-strict set must be fully annotated"
    )

    def visit_module(self, mod: ModuleInfo) -> Iterable[Finding]:
        if not in_strict_set(mod.rel):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(mod.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            findings.extend(self._check_def(mod, node))
        return findings

    def _check_def(
        self,
        mod: ModuleInfo,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> Iterable[Finding]:
        args = node.args
        every = list(args.posonlyargs) + list(args.args) + list(
            args.kwonlyargs
        )
        missing = [
            a.arg
            for a in every
            if a.annotation is None and a.arg not in ("self", "cls")
        ]
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if missing:
            yield Finding(
                rule=self.rule,
                path=mod.rel,
                line=node.lineno,
                message=(
                    f"{node.name}() has unannotated parameters: "
                    f"{', '.join(missing)}"
                ),
                hint="this module is in the strict-typing ratchet set",
            )
        if node.returns is None:
            yield Finding(
                rule=self.rule,
                path=mod.rel,
                line=node.lineno,
                message=f"{node.name}() has no return annotation",
                hint="this module is in the strict-typing ratchet set",
            )
        annotations = [a.annotation for a in every if a.annotation]
        if args.vararg is not None and args.vararg.annotation:
            annotations.append(args.vararg.annotation)
        if args.kwarg is not None and args.kwarg.annotation:
            annotations.append(args.kwarg.annotation)
        if node.returns is not None:
            annotations.append(node.returns)
        for annotation in annotations:
            for name in _bare_generic_names(annotation):
                yield Finding(
                    rule=self.rule,
                    path=mod.rel,
                    line=annotation.lineno,
                    message=(
                        f"{node.name}() uses bare generic '{name}' in "
                        "an annotation"
                    ),
                    hint=(
                        "spell the element types (e.g. Dict[str, int]) "
                        "— mirror of mypy --strict disallow_any_generics"
                    ),
                )
