"""Outside-in layer tracer for scaledss, loaded only in traced children.

``install()`` wraps every public function of each scaledss module and
rebinds the wrapper under every name that bound the original, in every
scaledss module, so calls between modules and within one module are both
seen.  ``OrderedComplex.__init__`` and ``ComplexMap.__init__`` are wrapped on
their classes.  Tiny hot helpers stay unwrapped: their spans would cost more
than the work they time.

A span is ``[name, start, end, parent, attr]``; spans stay in memory until
``dump`` writes them with the lru cache statistics of every cached builder.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("cli", "complexes", "generators", "scaling", "certificates",
           "search", "proofs", "tower", "grid", "serialize")
UNWRAPPED = frozenset({
    "complexes.faces", "complexes.simplex_key", "complexes.label_key",
    "complexes.dedup_word", "grid.vrow", "grid.vcol", "grid.vlabel",
    "grid.join_position", "certificates.step_kind",
})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cached: dict[str, object] = {}
        self.import_s = 0.0

    def wrap(self, name: str, fn, pre=None, post=None):
        """A wrapper recording one span per call.  ``pre(args, kwargs)``
        gives the span's attribute before the call; ``post(args, kwargs,
        out, attr)`` replaces it after a call that returned."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   pre(args, kwargs) if pre is not None else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                rec[4] = post(args, kwargs, out, rec[4])
            return out

        return traced

    def dump(self, path: str, cmd_id: str, install_s: float, run: tuple[float, float]) -> None:
        caches = {name: fn.cache_info()._asdict() for name, fn in self.cached.items()}
        record = {"cmd": cmd_id, "install_s": install_s, "run": list(run),
                  "caches": caches, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


def _hooks(name: str, fn, mods):
    """Span attributes the layer metrics need, by wrapped name."""
    if name == "certificates.apply_step":
        step_kind = mods["certificates"].step_kind
        return (lambda a, k: step_kind(a[1]), None)
    if name == "generators.instantiate":
        return (lambda a, k: repr((a[0], sorted(k.items()))), None)
    if name == "search.search_steps":
        return (None, lambda a, k, out, attr: len(out[0]) if out is not None else 0)
    if name == "serialize.canonical_dumps":
        return (None, lambda a, k, out, attr: len(out.encode("utf-8")))
    if hasattr(fn, "cache_info"):
        # attr: did this call miss the cache, i.e. build the object?
        return (lambda a, k: fn.cache_info().misses,
                lambda a, k, out, before: fn.cache_info().misses > before)
    return (None, None)


def install() -> Tracer:
    """Import every scaledss module (timed apart, as program start-up) and
    wrap it."""
    tracer = Tracer()
    t0 = time.perf_counter()
    import scaledss

    mods = {short: importlib.import_module(f"scaledss.{short}") for short in MODULES}
    tracer.import_s = time.perf_counter() - t0
    namespaces = [scaledss] + list(mods.values())
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            inner = getattr(obj, "__wrapped__", obj)
            name = f"{short}.{attr}"
            if (attr.startswith("_") or name in UNWRAPPED
                    or not inspect.isfunction(inner)
                    or inner.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(inner)):
                continue
            if hasattr(obj, "cache_info"):
                tracer.cached[name] = obj
            pre, post = _hooks(name, obj, mods)
            wrapped = tracer.wrap(name, obj, pre, post)
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, bound, wrapped)
    complexes = mods["complexes"]
    size = (None, lambda a, k, out, attr: len(a[0].tuples))
    complexes.OrderedComplex.__init__ = tracer.wrap(
        "complexes.ordered_complex", complexes.OrderedComplex.__init__, *size)
    complexes.ComplexMap.__init__ = tracer.wrap(
        "complexes.complex_map", complexes.ComplexMap.__init__)
    return tracer
