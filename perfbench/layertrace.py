"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces every public function of the layer modules
with a wrapper that records a span, in the defining module and in every
``qoracle`` module that imported the same function object (``tbs.mcx``,
``esop.mcx`` and so on).  A layer's self time is the time of its spans minus
the time of the spans they caused.  Counts are read from the arguments and
results of the wrapped calls, so ``src/`` stays untouched.
"""
from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("pla", "embed", "esop", "tbs", "circuit", "sim", "emit", "cli")

#: Per-layer metrics the traced run reports, with units.
METRICS = {
    "pla.self_s": "s", "pla.calls": "count", "pla.minterms": "count",
    "embed.self_s": "s", "embed.calls": "count", "embed.raised": "count",
    "embed.completed_rows": "count",
    "esop.self_s": "s", "esop.minimize_s": "s", "esop.sop_to_esop_s": "s",
    "esop.cubes_in": "count", "esop.cubes_out": "count", "esop.kept_ratio": "ratio",
    "tbs.self_s": "s", "tbs.calls": "count", "tbs.rows": "count", "tbs.gates": "count",
    "tbs.limit_hits": "count",
    "circuit.self_s": "s", "circuit.gates_built": "count", "circuit.x_added": "count",
    "sim.self_s": "s", "sim.calls": "count", "sim.minterms_checked": "count",
    "sim.skipped": "count",
    "emit.self_s": "s", "emit.bytes": "count",
    "cli.self_s": "s", "cli.calls": "count", "cli.raised": "count",
}


class _Frame:
    __slots__ = ("span", "child_s")

    def __init__(self, span: str):
        self.span = span
        self.child_s = 0.0


class Tracer:
    """Span and count records for one traced pass."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.stack: list[_Frame] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.patches: list | None = None

    # --- installation ------------------------------------------------------

    def _targets(self) -> list[tuple[str, types.FunctionType]]:
        found = []
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    found.append((f"{layer}.{name}", obj))
        return found

    def _patches(self) -> list[tuple[types.ModuleType, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding of a target."""
        wrappers = {id(fn): (fn, self._wrap(span, fn)) for span, fn in self._targets()}
        prefix = self.package.__name__
        patches = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, obj in vars(module).items():
                fn, wrapper = wrappers.get(id(obj), (None, None))
                if fn is obj:
                    patches.append((module, attr, fn, wrapper))
        return patches

    @contextmanager
    def installed(self):
        """Route every binding of a layer function through its span wrapper."""
        if self.patches is None:
            self.patches = self._patches()
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self.patches:
                setattr(module, attr, original)

    def _wrap(self, span: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(span, fn, args, kwargs)
        return traced

    # --- recording ---------------------------------------------------------

    def _call(self, span: str, fn, args, kwargs):
        parent = self.stack[-1].span if self.stack else ""
        if span == "tbs.tbs_synthesize":
            self.counts["tbs.rows"] += 1 << args[0].width
        frame = _Frame(span)
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.raised[span] += 1
            self._count_raise(span, exc)
            raise
        else:
            self._count(span, parent, args, result)
            return result
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            self.calls[span] += 1
            self.total_s[span] += elapsed
            self.self_s[span] += elapsed - frame.child_s
            if self.stack:
                self.stack[-1].child_s += elapsed

    def _count_raise(self, span: str, exc: BaseException) -> None:
        if span == "tbs.tbs_synthesize" and isinstance(exc, self.package.errors.GateLimitExceeded):
            self.counts["tbs.limit_hits"] += 1

    def _count(self, span: str, parent: str, args, result) -> None:
        c = self.counts
        if span == "pla.expand":
            c["pla.minterms"] += len(result.entries)
        elif span == "embed.finish_report":
            c["embed.completed_rows"] += result.completed_rows
        elif span == "esop.minimize_esop":
            c["esop.cubes_in"] += len(args[0].cubes)
            c["esop.cubes_out"] += len(result.cubes)
        elif span == "tbs.tbs_synthesize":
            c["tbs.gates"] += len(result.gates)
        elif span in ("circuit.x", "circuit.mcx"):
            c["circuit.gates_built"] += 1
            if span == "circuit.x" and parent == "circuit.lower_polarity":
                c["circuit.x_added"] += 1
        elif span == "sim.verify_oracle":
            c["sim.minterms_checked"] += result.checked
        elif span in ("emit.to_qasm", "emit.to_json"):
            c["emit.bytes"] += len(result)
        elif span == "cli.run_synthesis" and result.verification is None:
            c["sim.skipped"] += 1

    # --- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded so far."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            spans = [s for s in self.calls if s.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(self.self_s[s] for s in spans)
            out[f"{layer}.calls"] = sum(self.calls[s] for s in spans)
            out[f"{layer}.raised"] = sum(self.raised[s] for s in spans)
        out["esop.minimize_s"] = self.total_s["esop.minimize_esop"]
        out["esop.sop_to_esop_s"] = self.total_s["esop.sop_to_esop"]
        out.update(self.counts)
        cubes_in = out.get("esop.cubes_in", 0)
        out["esop.kept_ratio"] = out.get("esop.cubes_out", 0) / cubes_in if cubes_in else 0.0
        return {name: out.get(name, 0) for name in METRICS}
