"""Spans around fsdim's public entry points, recorded from outside the program.

`Tracer.install()` wraps each entry point below wherever the fsdim package
binds it: in its defining module and in every module that imported the name
(`fsdim.cli` and `fsdim.dimension` rebind `kdelta_profile` and `kt`, for
example), and on the class for methods. A span is
[name, start, end, parent index, counted seconds, attrs]; spans are kept in
memory and exported once the command has finished, so attribute extraction
stays outside the timed calls. Per-node calls (`SeparatorEnumerator.eval`)
are counters, not spans: their time is added to the enclosing span's
"counted seconds" so that self times exclude it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# (module, attribute path) of every entry point recorded as a span
SPANNED = [
    ("fsdim.cli", "dispatch"),
    ("fsdim.fst", "parse_fst"),
    ("fsdim.fst", "make_identity"),
    ("fsdim.fst", "make_periodic_decoder"),
    ("fsdim.fst", "make_block_huffman"),
    ("fsdim.digits", "RealSpec.stream"),
    ("fsdim.digits", "FileDigitStream.from_file"),
    ("fsdim.infocontent", "kt"),
    ("fsdim.precision", "kdelta"),
    ("fsdim.precision", "kdelta_profile"),
    ("fsdim.dimension", "dim_point_estimate"),
    ("fsdim.dimension", "dim_seq_estimate"),
    ("fsdim.dimension", "dim_set_estimate"),
    ("fsdim.dimension", "normality_report"),
    ("fsdim.separator", "ktf_delta"),
    ("fsdim.separator", "dimf_estimate"),
]
# entry points called once per search node: counted, not spanned
COUNTED = [("fsdim.separator", "SeparatorEnumerator.eval")]


def span_name(module: str, path: str) -> str:
    return f"{module.split('.', 1)[1]}.{path}"


def _delta_n(delta, base: int):
    """n with delta == base**-n, else None."""
    if delta.numerator != 1:
        return None
    n, den = 0, delta.denominator
    while den % base == 0:
        den //= base
        n += 1
    return n if den == 1 else None


def _result(res) -> dict:
    return {"status": res.status, "cost": res.cost}


def _kt_attrs(b, res):
    return dict(_result(res), cap=b["cap"])


def _kdelta_attrs(b, res):
    q = b["q"]
    return dict(_result(res), cap=q.cap_input, n=_delta_n(q.delta, q.base), t=id(b["t"]),
                key=f"{q.x.describe()}|{q.base}|{q.delta}",
                digit_only=q.x.exact_value(q.base) is None)


def _stream_attrs(b, res):
    return {"key": f"{b['self'].describe()}|{b['base']}"}


ATTRS = {
    "infocontent.kt": _kt_attrs,
    "precision.kdelta": _kdelta_attrs,
    "separator.ktf_delta": lambda b, res: _result(res),
    "digits.RealSpec.stream": _stream_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: dict = {}
        self.sites: list = []
        self._signatures: dict = {}

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            rec[5] = (args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        spans, stack = self.spans, self.stack
        totals = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                totals[0] += 1
                totals[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        return wrapper

    def install(self) -> None:
        """Wrap every binding of the entry points inside the fsdim package."""
        modules = [m for n, m in sys.modules.items() if n == "fsdim" or n.startswith("fsdim.")]
        for entries, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for module, path in entries:
                name = span_name(module, path)
                owner = sys.modules[module]
                cls_name, _, attr = path.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapped = make(name, fn)
                    setattr(cls, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                    self.sites.append(f"{module}.{path}")
                else:
                    fn = getattr(owner, attr)
                    wrapped = make(name, fn)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, key, wrapped)
                                self.sites.append(f"{mod.__name__}.{key}")
                self._signatures[name] = inspect.signature(fn)

    def export(self) -> dict:
        spans = []
        for name, start, end, parent, counted, payload in self.spans:
            attrs = None
            if name in ATTRS and payload is not None:
                args, kwargs, result = payload
                bound = self._signatures[name].bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = ATTRS[name](bound.arguments, result)
            spans.append([name, start, end, parent, counted, attrs])
        return {"spans": spans, "counters": self.counters, "sites": self.sites}
