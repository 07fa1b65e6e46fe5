"""Spans and counts recorded around calls into zonocert, from outside.

Hooks replace a module attribute, at every zonocert module that binds the
same function object, with a wrapper that records a span: name, start,
end, parent span and instance id.  ``from .ratgeom import rank`` binds
``rank`` separately in dicing, zonotope and parallelohedron, and the
certify stages are globals of parallelohedron, so wrapping every binding
reaches all call sites without a source edit.  A hook whose target no
longer exists raises HookError naming the hook; the untraced run installs
no hooks at all.

A span's self time is its duration minus the time its child spans cover;
a module's self time is the sum over its spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class HookError(RuntimeError):
    """A hook target is missing, so the trace would silently read zero."""


@dataclass(frozen=True)
class Hook:
    """Wrap ``zonocert.<module>.<attr>`` (``Class.method`` allowed).

    ``span`` hooks record a timed span; ``count`` hooks only count calls
    by their enclosing span, for leaf helpers called too often to keep a
    span each.  ``observe(args, result)`` returns an amount added to the
    counter ``tally`` (lines found, bytes written, lattice points).
    """

    name: str
    module: str
    attr: str
    kind: str = "span"
    tally: str | None = None
    observe: Callable | None = None


def _len_result(args, result):
    return len(result)


def _edges_result(args, result):
    return len(result.edges)


def _utf8_len(args, result):
    return len(result.encode("utf-8"))


def _signed_sums(args, result):
    return 2 ** len(args[0].generators)


HOOKS = (
    # ratgeom: exact kernels
    Hook("ratgeom.rank", "ratgeom", "rank"),
    Hook("ratgeom.kernel_line", "ratgeom", "kernel_line"),
    Hook("ratgeom.inverse", "ratgeom", "inverse"),
    Hook("ratgeom.det", "ratgeom", "det"),
    Hook("ratgeom.hnf", "ratgeom", "hnf_lattice_basis"),
    Hook("ratgeom.lattice_contains", "ratgeom", "lattice_contains"),
    Hook("ratgeom.bareiss_det", "ratgeom", "_bareiss_det", kind="count"),
    # dicing
    Hook("dicing.normal_set", "dicing", "NormalSet.__init__"),
    Hook("dicing.edge_set", "dicing", "compute_edge_set",
         tally="dicing.edge_set.lines", observe=_edges_result),
    Hook("dicing.unimodular_rep", "dicing", "unimodular_representation"),
    Hook("dicing.tu", "dicing", "is_totally_unimodular"),
    # zonotope
    Hook("zonotope.build", "zonotope", "Zonotope.__init__"),
    Hook("zonotope.facets", "zonotope", "facets",
         tally="zonotope.facets.pairs", observe=_len_result),
    Hook("zonotope.ridges", "zonotope", "ridge_classification",
         tally="zonotope.ridges.flats", observe=_len_result),
    Hook("zonotope.vertices_oracle", "zonotope", "vertices_oracle",
         tally="zonotope.vertices_oracle.sums", observe=_signed_sums),
    # parallelohedron: certify and its stages, verifier, cell oracle
    Hook("parallelohedron.certify", "parallelohedron", "certify_second_voronoi"),
    Hook("parallelohedron.lattice", "parallelohedron", "_lattice_from"),
    Hook("parallelohedron.quadratic_form", "parallelohedron", "quadratic_form"),
    Hook("parallelohedron.zone_vectors", "parallelohedron", "zone_vectors"),
    Hook("parallelohedron.facet_vectors", "parallelohedron",
         "_facet_vectors_from"),
    Hook("parallelohedron.n_equals_e", "parallelohedron", "check_n_equals_e"),
    Hook("parallelohedron.basis", "parallelohedron", "extract_basis"),
    Hook("parallelohedron.verify", "parallelohedron", "verify_certificate"),
    Hook("parallelohedron.cell_oracle", "parallelohedron", "dv_cell_oracle"),
    Hook("parallelohedron.delone", "parallelohedron", "delone_duality_check"),
    Hook("parallelohedron.short_vectors", "parallelohedron", "_short_vectors",
         kind="count", tally="parallelohedron.cell_oracle.lattice_points",
         observe=_len_result),
    # jsonio
    Hook("jsonio.parse", "jsonio", "parse_normal_set"),
    Hook("jsonio.parse_certificate", "jsonio", "parse_certificate"),
    Hook("jsonio.dump", "jsonio", "dumps",
         tally="jsonio.bytes_out", observe=_utf8_len),
    # cli: one span per in-process main() call
    Hook("cli.verb", "cli", "main"),
)

# The ten certify_second_voronoi stages, in pipeline order.
CERTIFY_STAGES = (
    "dicing.edge_set", "parallelohedron.lattice",
    "parallelohedron.quadratic_form", "parallelohedron.zone_vectors",
    "zonotope.build", "zonotope.facets", "parallelohedron.facet_vectors",
    "parallelohedron.n_equals_e", "parallelohedron.basis",
    "dicing.unimodular_rep",
)


class PassStats:
    """Aggregates of one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # (parent span name, child hook name) -> calls
        self.child_calls: dict[tuple, int] = defaultdict(int)
        self.tallies: dict[str, int] = defaultdict(int)
        # stage time inside certify spans, for the stage-cover share
        self.stage_in_certify = 0.0


class Tracer:
    """Keeps every span in memory; aggregates per pass and per instance."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.instance = -1
        self.names: dict[int, str] = {}
        self.paused = False
        self._next_id = 0
        self.stats = PassStats()
        self.instance_stats: dict[int, PassStats] = {}
        self._installed: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def new_pass(self) -> PassStats:
        done = self.stats
        self.stats = PassStats()
        return done

    def set_instance(self, name: str, keep_detail: bool):
        """Start the next instance; keep its own aggregates if asked."""
        self.instance += 1
        self.names[self.instance] = name
        if keep_detail:
            self.instance_stats[self.instance] = PassStats()

    def _targets(self) -> list[PassStats]:
        detail = self.instance_stats.get(self.instance)
        return [self.stats] if detail is None else [self.stats, detail]

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        frame = [self._next_id, name, 0.0, parent, self.clock()]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list):
        end = self.clock()
        self.stack.pop()
        span_id, name, child_s, parent, start = frame
        dur = end - start
        module = name.split(".", 1)[0]
        parent_name = parent[1] if parent is not None else None
        for st in self._targets():
            st.calls[name] += 1
            st.incl[name] += dur
            st.self_s[module] += dur - child_s
            st.child_calls[(parent_name, name)] += 1
            if parent_name == "parallelohedron.certify" and \
                    name in CERTIFY_STAGES:
                st.stage_in_certify += dur
        if parent is not None:
            parent[2] += dur
        self.spans.append((span_id, name, start, end,
                           parent[0] if parent is not None else None,
                           self.instance))

    def count(self, name: str):
        parent_name = self.stack[-1][1] if self.stack else None
        for st in self._targets():
            st.calls[name] += 1
            st.child_calls[(parent_name, name)] += 1

    def tally(self, key: str, amount: int):
        for st in self._targets():
            st.tallies[key] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code of the benchmark's own, such as one verb."""
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    @contextlib.contextmanager
    def pause(self):
        """Let calls through unrecorded, for checks outside the timed region."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- hooks -------------------------------------------------------------

    def _wrap(self, hook: Hook, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if hook.kind == "count":
                tracer.count(hook.name)
                result = fn(*args, **kwargs)
            else:
                frame = tracer.open(hook.name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(frame)
            if hook.observe is not None:
                tracer.tally(hook.tally, hook.observe(args, result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, hooks=HOOKS):
        """Wrap every hook target, or raise HookError before wrapping any."""
        resolved = []
        for hook in hooks:
            *path, attr = hook.attr.split(".")
            owner = sys.modules.get(f"zonocert.{hook.module}")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                raise HookError(
                    f"hook {hook.name}: zonocert.{hook.module}.{hook.attr} "
                    "does not exist; update perfbench/tracing.py")
            resolved.append((hook, owner, attr, original, bool(path)))
        modules = [m for name, m in sys.modules.items()
                   if name == "zonocert" or name.startswith("zonocert.")]
        for hook, owner, attr, original, on_class in resolved:
            wrapper = self._wrap(hook, original)
            targets = [(owner, attr)] if on_class else [
                (m, key) for m in modules
                for key, value in vars(m).items() if value is original]
            for obj, key in targets:
                self._installed.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write_spans(self, path):
        """One JSON object per span: id, name, start, end, parent, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, inst in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "instance": inst}))
                fh.write("\n")


class NullTracer:
    """Stands in for Tracer in the untraced run; records nothing."""

    def set_instance(self, name: str, keep_detail: bool):
        pass

    def new_pass(self):
        return None

    def span(self, name: str):
        return contextlib.nullcontext()

    def pause(self):
        return contextlib.nullcontext()
