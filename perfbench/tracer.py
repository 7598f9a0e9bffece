"""Run one holgal command with spans around the calls into its layers.

Usage: python3 perfbench/tracer.py OUT_PREFIX <holgal arguments...>

The package is never edited. Before the command runs, every attribute of
every loaded ``holgal`` module that is bound to a traced function is replaced
by a wrapper, so callers, which look these names up in their module's
globals, go through it. A span wrapper times the call and charges its
duration to the enclosing span, so each span name gets calls, self time and
inclusive time. A counter wrapper only counts calls. Spans are aggregated by
name as they close rather than kept one by one.

Each process writes its aggregate to ``OUT_PREFIX.<pid>.json`` when it ends:
the command's own process, and every multiprocessing worker it forks, which
starts from an empty aggregate and writes through a finalizer at exit.
"""

from __future__ import annotations

import functools
import json
import os
import multiprocessing.util
import sys
from time import perf_counter

HOLOMORPH_COUNTED = ("mul", "inv", "power", "element_order", "commute")

_spans: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s]
_counts: dict[str, float] = {}
_by_context: dict[str, dict[str, int]] = {}  # "subgroups"/"pairs" -> "p,e" -> size
_stack: list[list[float]] = []  # per open span: time covered by its child spans
_covered = [0.0]  # time inside outermost spans
_prefix = ""


def _reset() -> None:
    _spans.clear()
    _counts.clear()
    _by_context.clear()
    _stack.clear()
    _covered[0] = 0.0


def _count(name: str, amount: float = 1) -> None:
    _counts[name] = _counts.get(name, 0) + amount


def _span(name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        children = [0.0]
        _stack.append(children)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            _stack.pop()
            entry = _spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration - children[0]
            entry[2] += duration
            if _stack:
                _stack[-1][0] += duration
            else:
                _covered[0] += duration
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _counter(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _counts[name] = _counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _per_context(kind: str):
    def record(args, result) -> None:
        ctx = args[0]
        _by_context.setdefault(kind, {})[f"{ctx.p},{ctx.e}"] = len(result)

    return record


def _quotient(args, result) -> None:
    _count("subgroups.quotient.order_sum", result.size)


def _isomorphism(args, result) -> None:
    _count("subgroups.find_isomorphism.found", result is not None)


_REJECTIONS = {
    "size incompatible": "oracle.rejected.size",
    "no transitive subgroup": "oracle.rejected.no_subgroup",
    "order/centrality/marking profile": "oracle.rejected.profile",
    "backtracking exhausted": "oracle.rejected.search",
}


def _decision(args, report) -> None:
    """Bucket an OracleReport by its reason text; an unknown reason is an error."""
    if report.admitted:
        _count("oracle.admitted")
        return
    for start, name in _REJECTIONS.items():
        if report.reason.startswith(start):
            _count(name)
            return
    raise RuntimeError(f"trace: unknown oracle rejection reason {report.reason!r}")


def _emitted(args, result) -> None:
    _count("cli.emit.bytes", os.path.getsize(args[0]))


def _checks(args, results) -> None:
    _count("verify.checks", len(results))
    _count("verify.failed", sum(1 for r in results if not r.passed))


def _hooks(verify_module):
    """(defining module, attribute, wrapper factory) for every traced function."""
    spans = [
        ("holgal.subgroups", "all_subgroups", "subgroups.all_subgroups", _per_context("subgroups")),
        ("holgal.subgroups", "core", "subgroups.core", None),
        ("holgal.subgroups", "quotient", "subgroups.quotient", _quotient),
        ("holgal.subgroups", "find_isomorphism", "subgroups.find_isomorphism", _isomorphism),
        ("holgal.criteria", "transitive_pairs", "criteria.transitive_pairs", _per_context("pairs")),
        ("holgal.criteria", "even_predicate", "criteria.predicate", None),
        ("holgal.criteria", "odd_predicate", "criteria.predicate", None),
        ("holgal.criteria", "classify_pair", "criteria.verdict", None),
        # Both public oracle entry points route through _decide, whose
        # report carries the reason that admits_transitive_embedding drops.
        ("holgal.oracle", "_transitive_models", "oracle.models", None),
        ("holgal.oracle", "_decide", "oracle.decision", _decision),
        ("holgal.cli", "_write_records", "cli.emit", _emitted),
        ("holgal.cli", "_write_manifest", "cli.emit", _emitted),
        ("holgal.verify", "run_checks", "verify.run_checks", _checks),
    ]
    spans += [
        ("holgal.verify", attr, "verify." + attr[len("check_"):], None)
        for attr, value in sorted(vars(verify_module).items())
        if attr.startswith("check_") and getattr(value, "__module__", None) == "holgal.verify"
    ]
    for module, attr, name, on_result in spans:
        yield module, attr, lambda fn, name=name, on_result=on_result: _span(name, fn, on_result)
    for attr in HOLOMORPH_COUNTED:
        yield "holgal.holomorph", attr, lambda fn, attr=attr: _counter(f"holomorph.{attr}.calls", fn)


def install() -> None:
    """Rebind every traced function in every loaded holgal module."""
    import holgal.cli
    import holgal.verify

    modules = [m for name, m in sys.modules.items() if name == "holgal" or name.startswith("holgal.")]
    for module_name, attr, make in _hooks(holgal.verify):
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            print(f"trace: {module_name}.{attr} not found; its metrics read 0", file=sys.stderr)
            continue
        wrapper = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def dump() -> None:
    aggregate = {
        "spans": _spans,
        "counts": _counts,
        "by_context": _by_context,
        "covered_s": _covered[0],
    }
    with open(f"{_prefix}.{os.getpid()}.json", "w") as handle:
        json.dump(aggregate, handle)


class _Worker:
    """Anchor for multiprocessing's after-fork registry, which holds it weakly."""

    def after_fork(self) -> None:
        # Runs in the worker after multiprocessing has cleared the finalizers
        # it inherited, so the one registered here survives until exit.
        _reset()
        multiprocessing.util.Finalize(None, dump, exitpriority=100)


_WORKER = _Worker()


def main(argv: list[str]) -> int:
    global _prefix
    _prefix = argv[0]
    install()
    multiprocessing.util.register_after_fork(_WORKER, _Worker.after_fork)
    from holgal.cli import main as holgal_main

    try:
        return holgal_main(argv[1:])
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
