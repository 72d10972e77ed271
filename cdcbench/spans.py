"""Span recorder and the wrappers that put spans around `cdcodes` entry points.

The recorder keeps every span in memory as (name, start, end, parent) in
compact arrays; self time is a span's duration minus the durations of its
direct children, so the self times of one tree add up to its root span.

`Instrumentation` replaces public entry points of the `cdcodes` modules,
from outside the package, with wrappers that open a span around each call
(or around each step of a returned generator) and restores them on exit.
Arithmetic that runs inside a wrapped call without a span of its own (for
example GF multiplications inside `QPolynomial.to_matrix`) counts as the
caller's self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter


class SpanRecorder:
    """Nested spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def inside(self, name: str) -> bool:
        """True if a span called `name` is open."""
        nid = self._name_ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self._stack)

    def add(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] += amount

    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """name -> (total duration, total self time, span count), closed spans only."""
        if self._stack:
            raise RuntimeError("spans are still open")
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            entry = out.setdefault(self.names[self.name_id[i]], [0.0, 0.0, 0])
            entry[0] += dur
            entry[1] += dur - child[i]
            entry[2] += 1
        return {name: tuple(v) for name, v in out.items()}


def _call_span(rec: SpanRecorder, name, fn):
    def wrapper(*args, **kwargs):
        idx = rec.open(name() if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _generator_span(rec: SpanRecorder, name: str, fn, on_item=None):
    """Wrap a function returning an iterator: one span per produced item."""

    def stepped(it):
        while True:
            idx = rec.open(name)
            try:
                item = next(it)
            except StopIteration:
                rec.close(idx)
                return
            rec.close(idx)
            if on_item is not None:
                on_item()
            yield item

    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            it = iter(fn(*args, **kwargs))
        finally:
            rec.close(idx)
        return stepped(it)

    return wrapper


class Instrumentation:
    """Spans around the entry points of every `cdcodes` layer, installed on demand.

    Span names are ``<layer>.<entry point>``; the layer is the module name.
    Counters collected on the way: enumerated maps, filtration maps kept
    and seen, subspaces yielded to and kept by a construction, and mask
    bytes (computed from the mask array's shape).
    """

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # Functions imported by name (`from .linalg import subspace_from_rows`)
        # live in several module namespaces; replace each binding.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cdcodes" or mod_name.startswith("cdcodes.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        from cdcodes import bounds, cli, construct, gf, linalg, qpoly, rankdist, verify

        rec = self.rec
        span = lambda owner, attr, name: self._replace(  # noqa: E731
            owner, attr, _call_span(rec, name, getattr(owner, attr)))

        span(cli, "main", "cli.main")
        span(cli, "write_codeset", "cli.write_codeset")
        span(cli, "read_codeset", "cli.read_codeset")

        for attr in ("field_of_order", "extension_field", "prime_field"):
            span(gf, attr, f"gf.{attr}")
        span(gf.GF, "__init__", "gf.GF")
        span(gf.GFExtension, "__init__", "gf.GFExtension")

        def count_map():
            rec.add("qpoly.maps")
            if rec.inside("qpoly.enumerate_filtration"):
                rec.add("qpoly.filtration_seen")

        for attr in ("enumerate_mrd", "enumerate_rect_mrd"):
            self._replace(qpoly, attr, _generator_span(
                rec, f"qpoly.{attr}", getattr(qpoly, attr), count_map))
        self._replace(qpoly, "enumerate_filtration", _generator_span(
            rec, "qpoly.enumerate_filtration", qpoly.enumerate_filtration,
            lambda: rec.add("qpoly.filtration_kept")))
        span(qpoly.QPolynomial, "to_matrix", "qpoly.to_matrix")
        span(qpoly.RectQPolynomial, "to_matrix", "qpoly.to_matrix")

        span(linalg, "subspace_from_rows", lambda: (
            "linalg.rref.read" if rec.inside("cli.read_codeset") else "linalg.rref.construct"))
        span(linalg.MatrixGF, "rank", "linalg.rank")
        span(linalg, "intersection_dim", "linalg.intersection_dim")

        for attr in ("gaussian_binomial", "delsarte_distribution", "closed_form_first_three",
                     "filtration_size", "lifted_mrd_size"):
            span(rankdist, attr, f"rankdist.{attr}")

        for attr in ("lifted_mrd_code", "rect_lifted_mrd_code", "grassmannian_code", "linkage",
                     "parallel_linkage", "multiblock_parallel_mrd", "multiblock_generators"):
            span(construct, attr, f"construct.{attr}")
        collect = construct._collect

        def counted_collect(field, ambient_dim, dim, distance, subspaces, *rest):
            def counted():
                for s in subspaces:
                    rec.add("construct.yielded")
                    yield s

            code = collect(field, ambient_dim, dim, distance, counted(), *rest)
            rec.add("construct.members", len(code.members))
            return code

        self._replace(construct, "_collect", counted_collect)

        span(verify, "validate_codeset", "verify.validate_codeset")
        span(verify, "min_distance_exhaustive", "verify.min_distance_exhaustive")
        span(verify, "min_distance_sampled", "verify.min_distance_sampled")
        masks = verify.membership_masks

        def counted_masks(*args, **kwargs):
            idx = rec.open("verify.membership_masks")
            try:
                members, arr = masks(*args, **kwargs)
            finally:
                rec.close(idx)
            if arr is not None:
                rec.add("verify.mask_bytes", arr.shape[0] * arr.shape[1] * arr.itemsize)
            return members, arr

        self._replace(verify, "membership_masks", counted_masks)

        for attr in ("bound_multiblock", "bound_johnson_halving", "bound_parallel_linkage",
                     "anticode_upper"):
            self._replace(bounds, attr, _call_span(rec, "bounds.evaluate", getattr(bounds, attr)))
        for attr in ("multiblock_closed_form_2k", "generate_table", "generate_table1",
                     "expected_rows", "check_table", "load_best_known", "default_best_known"):
            span(bounds, attr, f"bounds.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
