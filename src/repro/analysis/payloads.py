"""Checker: pool-worker payload picklability (rule ``mp-payload``).

Sharded execution ships sliced relations (and everything hanging off
them) to ``multiprocessing`` workers by pickling — the design leans on
FlatTrie CSR arrays and arena int-arrays being plain data.  A field of
a known-unpicklable type added to any payload class turns every
``workers >= 1`` run into a runtime ``PicklingError`` that no unit
test with ``workers=0`` would catch.

The checker walks a configured registry of payload classes (the
transitive closure of what :func:`repro.parallel.executor.run_sharded`
puts in a shard payload) and flags ``self.<field> = <expr>``
assignments whose right-hand side is a known-unpicklable construction:
a ``lambda``, a generator expression, an ``open()`` call, or a
constructor reached through ``threading`` / ``multiprocessing`` /
``socket`` / ``weakref`` / ``mmap`` / ``ctypes``.  A registered class
that can no longer be found flags as well, so the registry cannot rot
when classes move or get renamed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.framework import Checker, Finding, ModuleInfo, Project

#: module dotted name -> class names shipped (directly or as fields) to
#: pool workers.  See run_sharded(): payload = the run's ExecSpec plus
#: sliced Relations, whose indexes are FlatTrie/Delta/Trie relations
#: over interval pools and counters.  No CDS is shipped (workers build
#: their own); the arena CDS stays listed so its fields stay plain,
#: picklable data.
PAYLOAD_CLASSES: Dict[str, Tuple[str, ...]] = {
    "repro.core.engine": ("ExecSpec",),
    "repro.parallel.supervisor": ("ShardPayload",),
    "repro.storage.relation": ("Relation",),
    "repro.storage.flat_trie": ("FlatTrieRelation",),
    "repro.storage.delta": ("DeltaRelation",),
    "repro.storage.trie": ("TrieRelation", "_TrieNode"),
    "repro.storage.interval_list": ("IntervalList",),
    "repro.storage.interval_pool": ("IntervalPool",),
    "repro.core.cds_arena": ("ArenaConstraintTree",),
    "repro.util.counters": ("OpCounters", "NullCounters"),
}

#: Modules whose attribute constructors never pickle.
_UNPICKLABLE_MODULES: Set[str] = {
    "threading",
    "multiprocessing",
    "socket",
    "weakref",
    "mmap",
    "ctypes",
}


def _unpicklable_reason(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "an open file handle"
        if isinstance(func, ast.Attribute):
            root: ast.expr = func
            while isinstance(root, ast.Attribute):
                root = root.value
            if (
                isinstance(root, ast.Name)
                and root.id in _UNPICKLABLE_MODULES
            ):
                return f"a {root.id}.* object"
    return None


class MpPayloadChecker(Checker):
    rule = "mp-payload"
    description = (
        "pool-worker payload classes must not grow unpicklable fields"
    )

    def visit_module(self, mod: ModuleInfo) -> Iterable[Finding]:
        wanted = PAYLOAD_CLASSES.get(mod.module)
        if not wanted:
            return ()
        findings: List[Finding] = []
        classes = {
            node.name: node
            for node in mod.tree.body
            if isinstance(node, ast.ClassDef)
        }
        for name in wanted:
            cls = classes.get(name)
            if cls is None:
                findings.append(
                    Finding(
                        rule=self.rule,
                        path=mod.rel,
                        line=1,
                        message=(
                            f"registered payload class {name} not found "
                            f"in {mod.module}"
                        ),
                        hint=(
                            "update repro.analysis.payloads."
                            "PAYLOAD_CLASSES when payload classes move "
                            "or are renamed"
                        ),
                    )
                )
                continue
            findings.extend(self._check_class(mod, cls))
        return findings

    def _check_class(
        self, mod: ModuleInfo, cls: ast.ClassDef
    ) -> Iterable[Finding]:
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                reason = _unpicklable_reason(node.value)
                if reason is not None:
                    yield Finding(
                        rule=self.rule,
                        path=mod.rel,
                        line=node.lineno,
                        message=(
                            f"{cls.name}.{target.attr} is assigned "
                            f"{reason}, which cannot be pickled to pool "
                            "workers"
                        ),
                        hint=(
                            "payload classes travel to multiprocessing "
                            "workers; keep fields plain data or exclude "
                            "them via __getstate__"
                        ),
                    )
