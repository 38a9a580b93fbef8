"""Outside-in layer tracing for the nichols benchmark.

The tracer wraps the public functions of each layer from the outside: every
module attribute of the ``nichols`` package that is bound to a target
function is replaced by a wrapper, which also catches callers that did
``from .x import f`` and the recursive ``symmetrizer`` calls.  Functions
behind an ``lru_cache`` are wrapped outside the cache, so ``calls`` counts
attempts, hits included.  Each call becomes a span (name, start, end,
parent span, command id) kept in memory; self time is a span's duration
minus the durations of its direct child spans.  ``restore`` puts every
patched attribute back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time

# layer module -> public functions to wrap ("Class.method" for methods)
TARGETS = {
    "cli": ["run_command"],
    "oracle": [
        "verify_main",
        "ker_cap_Um",
        "symmetrizer",
        "SymmetrizerMatrix.apply",
        "in_kernel",
        "in_kernel_by_derivations",
        "nichols_dim",
    ],
    "linalg": ["rref", "rank", "nullspace", "solve"],
    "rootvec": ["ad_pow_coords", "uhat_coords", "ad_p_closed_form", "l_n", "uhat_pair_words"],
    "jset": ["compute_J", "multiplicity", "non_root_table_check"],
    "qcalc": ["qfact_b"],
    "braided": ["skew_derive", "ad_x1_pow"],
}
HIT_RATIOS = ("oracle.symmetrizer", "rootvec.uhat_pair_words", "qcalc.qfact_b")
PACKAGE = "nichols"


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def cache_entries() -> int:
    """Sum of ``currsize`` over every lru_cache reachable from the package."""
    seen: dict = {}
    for mod in _package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)):
                seen[id(value)] = value
    return sum(fn.cache_info().currsize for fn in seen.values())


class Tracer:
    """Span recorder; ``clock`` is replaceable so tests can drive it."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list = []
        self.calls: list = []
        self.self_s: list = []
        self.spans: list = []  # (name index, start, end, parent span or -1, command)
        self.command = None
        self.rref_cells = 0
        self._stack: list = []  # [span id, time covered by direct children]
        self._patched: list = []  # (owner, attribute, original)
        self._originals: dict = {}
        self._elements = itertools.count()

    def wrap(self, name: str, fn, on_call=None):
        """A wrapper around ``fn`` that records one span per call."""
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        clock, stack, spans, calls, self_s = (
            self.clock, self._stack, self.spans, self.calls, self.self_s,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            span_id = len(spans)
            spans.append(None)  # reserved so that children can name their parent
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                spans[span_id] = (idx, start, end, parent, self.command)

        return wrapper

    def _patch(self, owner, attr: str, new, original) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target, and count FieldElement constructions."""
        for layer, attrs in TARGETS.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in attrs:
                name = f"{layer}.{attr}"
                on_call = self._count_cells if name == "linalg.rref" else None
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[method]
                    self._originals[name] = original
                    self._patch(owner, method, self.wrap(name, original, on_call), original)
                    continue
                original = getattr(module, attr)
                self._originals[name] = original
                wrapper = self.wrap(name, original, on_call)
                for mod in _package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper, original)

        from nichols.fields import FieldElement

        original_init = vars(FieldElement)["__init__"]
        tick = self._elements.__next__

        def counting_init(obj, field, value):
            tick()
            original_init(obj, field, value)

        self._patch(FieldElement, "__init__", counting_init, original_init)

    def _count_cells(self, args) -> None:
        matrix = args[1]
        self.rref_cells += len(matrix) * (len(matrix[0]) if matrix else 0)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Per-layer counts and self times, read after ``restore``."""
        out: dict = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
        out["linalg.rref.cells"] = self.rref_cells
        for name in HIT_RATIOS:
            info = self._originals[name].cache_info()
            attempts = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / attempts if attempts else 0.0
        out["cache.entries"] = cache_entries()
        out["fields.elements_created"] = next(self._elements)
        return out

    def span_dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "command"],
            "names": self.names,
            "spans": self.spans,
        }
