#!/usr/bin/env python
"""Assert the repro import DAG: lower layers never import upward, and
no module loads scipy at import time.

The package is layered (see DESIGN.md, "Middleware service layer")::

    sim / runtime / errors / blas   rank 0   substrate + plumbing
    config / faults                 rank 1   vocabulary
    lsm                             rank 2   storage engine
    workload / datastore            rank 3   load + servers
    ml / ga / analysis              rank 4   learning + search
    recovery                        rank 5   crash-safe artifacts
    bench                           rank 6   offline campaign
    core                            rank 7   Rafiki + control-loop vocabulary
    middleware                      rank 8   multi-tenant service layer
    cli / __main__ / package root   rank 9   entry points

A *module-level* import may only target the same or a lower rank.
Function-level (lazy) imports are out of scope: they defer the
dependency to call time and cannot create an import cycle.  This script
therefore scans only statements that execute at import time (module and
class bodies; function bodies are skipped).

The same scan enforces the footprint rule (DESIGN.md, "Process
footprint and one BLAS thread"): ``scipy`` is imported only inside the
functions that call it, so serving never loads it.

Run from the repo root::

    PYTHONPATH=src python scripts/check_layering.py

Exit status 0 = both rules hold; 1 = at least one violation, each
printed as ``file:line: <importer> (rank a) -> <target> (rank b)`` or
``file:line: <importer> -> scipy... at import time``.  A ``LAYERS`` or
``SUBLAYERS`` entry naming a module that does not exist is a violation
too (``stale rank: repro.<name> ...``): a deleted module must take its
rank with it.

Pure stdlib (ast only) so the CI lint job needs no third-party deps.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: First path component under ``repro.`` -> layer rank.
LAYERS = {
    "blas": 0,  # the thread pin; must load before numpy, so imports none of it
    "errors": 0,
    "sim": 0,
    "runtime": 0,
    "config": 1,
    "faults": 1,
    "lsm": 2,
    "workload": 3,
    "datastore": 3,
    "ml": 4,
    "ga": 4,
    "analysis": 4,
    "recovery": 5,
    "bench": 6,
    "core": 7,
    "middleware": 8,
    "cli": 9,
    "__main__": 9,
    "__init__": 9,  # the package root facade re-exports everything
}

#: Intra-package sublayers (second path component -> sub-rank) for
#: packages whose internal import order is itself a contract.  The
#: middleware's guard stack sits *below* the session/scheduler tiers it
#: protects: slo/breaker/ledger are leaf vocabulary, guard composes
#: them, session consults a guard (duck-typed, no import), the scheduler
#: owns the ledger, and the manifest builds specs for all of it.
SUBLAYERS = {
    "middleware": {
        "slo": 0,
        "breaker": 0,
        "ledger": 0,
        "guard": 1,
        # The drift reconciler is a peer of the guard: leaf machinery the
        # session consults (duck-typed) but never the other way around.
        "reconcile": 1,
        "session": 2,
        "scheduler": 3,
        "manifest": 4,
        "__init__": 5,  # the package facade re-exports every tier
    },
    # The datastore's actuation stack is ordered too: base servers are
    # leaves, the analytic cluster composes them (and owns the per-node
    # applied-config state), and the adapter sits on top of the cluster.
    "datastore": {
        "base": 0,
        "cassandra": 1,
        "scylla": 1,
        "cluster": 1,
        "adapter": 2,
        "__init__": 3,
    },
    # Runtime: events are leaf vocabulary; the pool backend publishes
    # its crash records on the bus.
    "runtime": {
        "events": 0,
        "backend": 1,
        "__init__": 2,
    },
}


def module_name(path: Path, src: Path) -> str:
    rel = path.relative_to(src).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of(module: str):
    """Rank of a ``repro...`` module, or None if foreign.

    Ranks are ``(layer, sublayer)`` tuples so packages listed in
    SUBLAYERS get their internal order checked too; elsewhere the
    sublayer is 0 and the comparison degenerates to the layer rank.
    """
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    head = parts[1] if len(parts) > 1 else "__init__"
    if head not in LAYERS:
        raise SystemExit(
            f"unknown subpackage 'repro.{head}' — add it to LAYERS in "
            f"{__file__} (pick its rank deliberately)"
        )
    sub = 0
    if head in SUBLAYERS:
        name = parts[2] if len(parts) > 2 else "__init__"
        if name not in SUBLAYERS[head]:
            raise SystemExit(
                f"unknown module 'repro.{head}.{name}' — add it to "
                f"SUBLAYERS[{head!r}] in {__file__} (pick its sub-rank "
                "deliberately)"
            )
        sub = SUBLAYERS[head][name]
    return (LAYERS[head], sub)


def rank_label(rank) -> str:
    """Human form of a ``(layer, sublayer)`` rank: ``8.1``, or just ``8``."""
    layer, sub = rank
    return f"{layer}.{sub}" if sub else str(layer)


def import_time_nodes(tree: ast.AST):
    """Yield Import/ImportFrom nodes that execute at import time."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # lazy imports inside functions are the escape hatch
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
            continue
        stack.extend(ast.iter_child_nodes(node))


def imported_modules(node, importer: str):
    """Dotted targets of one import node, relative imports resolved."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
        return
    base = node.module or ""
    if node.level:  # relative: resolve against the importer's package
        pkg_parts = importer.split(".")
        anchor = pkg_parts[: len(pkg_parts) - node.level + 1][:-1] or pkg_parts[:1]
        base = ".".join(anchor + ([base] if base else []))
    yield base


def check(src: Path):
    violations = []
    for path in sorted(src.rglob("*.py")):
        importer = module_name(path, src)
        importer_rank = layer_of(importer if importer else "repro")
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in import_time_nodes(tree):
            for target in imported_modules(node, importer):
                if target.split(".")[0] == "scipy":
                    violations.append(
                        f"{path}:{node.lineno}: {importer} -> {target} at import time"
                    )
                    continue
                target_rank = layer_of(target)
                if target_rank is None:  # stdlib / third-party
                    continue
                if target_rank > importer_rank:
                    violations.append(
                        f"{path}:{node.lineno}: {importer} (rank "
                        f"{rank_label(importer_rank)}) -> {target} "
                        f"(rank {rank_label(target_rank)})"
                    )
    return violations


def stale_ranks(src: Path):
    """The ``LAYERS`` / ``SUBLAYERS`` entries that name no module under
    ``src`` (a ``<name>.py`` file or a ``<name>/`` package)."""
    def exists(parent: Path, name: str) -> bool:
        return (parent / f"{name}.py").is_file() or (parent / name).is_dir()

    root = src / "repro"
    stale = [f"repro.{head}" for head in LAYERS if not exists(root, head)]
    for head, names in SUBLAYERS.items():
        stale.extend(
            f"repro.{head}.{name}" for name in names if not exists(root / head, name)
        )
    return [f"stale rank: {name} names no module in {root}" for name in stale]


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro").is_dir():
        print(f"cannot find src/repro under {src}", file=sys.stderr)
        return 1
    violations = check(src) + stale_ranks(src)
    if violations:
        print(f"{len(violations)} violation(s) of the layering rules:")
        for v in violations:
            print(f"  {v}")
        return 1
    n_modules = sum(1 for _ in (src / "repro").rglob("*.py"))
    print(
        f"layering OK: {n_modules} modules respect the import DAG; "
        "none imports scipy at import time"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
