"""Checkers for import edges: the layering DAG (rule ``layering``)
and the stdlib-only runtime (rule ``third-party-import``).

The engine is layered; an import edge may only point *down*:

    util < storage < io < hypergraph < core < datasets
         < {certificates, baselines, dynamic} < parallel
         < lang < planner < serve < experiments < analysis < cli

Two subpackages sit outside the tower by design:

* ``obs`` — the observability bundle is importable from anywhere
  (engines thread spans/metrics through), but must itself import no
  engine module (``util`` only), so enabling tracing can never create
  an import cycle or change engine behaviour.
* ``testing`` — fault-injection crashpoints are threaded through
  production write paths, so any layer may import it; it may import
  nothing from the package at all.

Function-level (deferred) imports are checked too: a lazy upward
import is still an architectural edge, it just hides from module load
order.  The one deliberate edge (``core.engine`` pulling the sharded
executor for the ``workers=`` escape hatch) carries a
``# lint: disable=layering`` pragma with its justification.

``layering`` looks only at edges inside the package.  Edges leaving it
are the business of ``third-party-import``: the runtime is standard
library only, so every process that imports ``repro`` (the HTTP
server, each spawned shard worker, a recovering catalog) starts at the
interpreter's own footprint.  A deferred import counts the same — it
moves the cost from start-up to the first request that reaches it.
"""

from __future__ import annotations

import ast
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.framework import Checker, Finding, ModuleInfo

#: Subpackage -> rank.  An import edge ``A -> B`` (A imports B) is legal
#: iff ``rank(A) > rank(B)`` or both sides live in the same subpackage.
LAYER_RANKS: Dict[str, int] = {
    "util": 0,
    "storage": 10,
    "io": 15,
    "hypergraph": 18,
    "core": 20,
    "datasets": 25,
    "certificates": 30,
    "baselines": 30,
    "dynamic": 30,
    "parallel": 32,
    "lang": 40,
    "planner": 42,
    "serve": 50,
    "net": 52,
    "experiments": 55,
    "analysis": 58,
    "cli": 60,
    "__main__": 61,
}

#: Importable from every layer; the value lists what *they* may import.
FLOATING_LAYERS: Dict[str, Tuple[str, ...]] = {
    "obs": ("util",),
    "testing": (),
}


def _imported_modules(
    mod: ModuleInfo, package: str = "repro"
) -> List[Tuple[int, str]]:
    """Every intra-package import edge as ``(lineno, dotted-target)``.

    Both ``import repro.x`` / ``from repro.x import y`` and relative
    forms (``from ..storage import trie``) are resolved; imports of
    other distributions are ignored.
    """
    edges: List[Tuple[int, str]] = []
    is_pkg = mod.path.name == "__init__.py"
    parts = list(mod.package_parts)
    pkg_parts = parts if is_pkg else parts[:-1]
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == package or alias.name.startswith(
                    package + "."
                ):
                    edges.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                target = node.module or ""
            else:
                anchor = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                if not anchor:
                    continue
                target = ".".join(
                    anchor + ([node.module] if node.module else [])
                )
            if target == package or target.startswith(package + "."):
                edges.append((node.lineno, target))
    return edges


def _layer_of(dotted: str) -> Optional[str]:
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 else None


class LayeringChecker(Checker):
    rule = "layering"
    description = "import edges must respect the layer DAG"

    def visit_module(self, mod: ModuleInfo) -> Iterable[Finding]:
        if mod.module == "repro":
            # The root __init__ is the public facade; it re-exports
            # every layer by design.
            return ()
        src_layer = mod.top_subpackage()
        findings: List[Finding] = []
        for lineno, target in _imported_modules(mod):
            dst_layer = _layer_of(target)
            if dst_layer is None or dst_layer == src_layer:
                continue
            finding = self._check_edge(mod, lineno, src_layer, dst_layer)
            if finding is not None:
                findings.append(finding)
        return findings

    def _check_edge(
        self, mod: ModuleInfo, lineno: int, src: str, dst: str
    ) -> Optional[Finding]:
        if dst in FLOATING_LAYERS:
            return None  # obs/testing are importable from anywhere
        if src in FLOATING_LAYERS:
            if dst in FLOATING_LAYERS[src]:
                return None
            return Finding(
                rule=self.rule,
                path=mod.rel,
                line=lineno,
                message=(
                    f"floating layer '{src}' may import only "
                    f"{list(FLOATING_LAYERS[src])}, not '{dst}'"
                ),
                hint=(
                    "obs/testing must stay importable from every layer; "
                    "importing engine modules back would create cycles"
                ),
            )
        src_rank = LAYER_RANKS.get(src)
        dst_rank = LAYER_RANKS.get(dst)
        if src_rank is None:
            return Finding(
                rule=self.rule,
                path=mod.rel,
                line=lineno,
                message=f"subpackage '{src}' is not in the layer map",
                hint="add it to repro.analysis.layering.LAYER_RANKS",
            )
        if dst_rank is None:
            return Finding(
                rule=self.rule,
                path=mod.rel,
                line=lineno,
                message=f"imported subpackage '{dst}' is not in the layer map",
                hint="add it to repro.analysis.layering.LAYER_RANKS",
            )
        if src_rank > dst_rank:
            return None
        return Finding(
            rule=self.rule,
            path=mod.rel,
            line=lineno,
            message=(
                f"layering back-edge: '{src}' (rank {src_rank}) imports "
                f"'{dst}' (rank {dst_rank})"
            ),
            hint=(
                "dependencies must point down the tower "
                "(util < storage < core < ... < cli); invert the "
                "dependency or justify a deferred import with a pragma"
            ),
        )


class ThirdPartyImportChecker(Checker):
    rule = "third-party-import"
    description = "src/repro imports only itself and the standard library"

    def visit_module(self, mod: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                findings.append(
                    Finding(
                        rule=self.rule,
                        path=mod.rel,
                        line=node.lineno,
                        message=f"import of third-party package '{top}'",
                        hint=(
                            "the runtime is stdlib-only; do the work "
                            "in-tree, or keep the dependency on the test "
                            "side (pytest.importorskip)"
                        ),
                    )
                )
        return findings
