"""In-memory spans and counters around the package's public functions.

The wrappers are installed at run time: each target function is replaced
in its own module and wherever another module imported it by name, and
restored afterwards.  Spanned functions record (id, parent, name, layer,
start, end); hot kernels only count calls.  Nothing in the package
changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
from time import perf_counter

LAYERS = ("cli", "verify", "group", "epw", "linalg", "lattices", "hermitian",
          "groebner", "textform")

# (module, attribute) of each spanned function; its layer is the module.
SPANNED = (
    ("group", "generate_group"), ("group", "GroupTable.conjugacy_classes"),
    ("group", "invariant_hermitian"), ("group", "stabilizer"), ("group", "character"),
    ("epw", "sextic_equation"), ("epw", "sextic_via_interpolation"),
    ("epw", "fixed_locus"), ("epw", "sextic_fixed_point_count"), ("epw", "stratum"),
    ("linalg", "rank"), ("linalg", "smith_normal_form"),
    ("lattices", "disc_group"), ("lattices", "short_vectors"),
    ("hermitian", "herm_det"), ("hermitian", "polarization_invariants"),
    ("groebner", "smoothness_check"), ("groebner", "buchberger"),
    ("groebner", "jacobian_minors"),
    ("textform", "parse_polynomial"), ("textform", "emit_polynomial"),
)

# Hot kernels: call counts only.
COUNTED = (
    ("group", "mat_mul"), ("cyclo", "CycloNum.__mul__"), ("cyclo", "CycloNum.inverse"),
    ("poly", "MultiPoly.__mul__"), ("poly", "MultiPoly.evaluate"),
    ("groebner", "normal_form"),
)

# Extra tallies taken from a wrapped function's result: (tally name, value
# of the result, "sum" or "max" over calls).
OBSERVERS = {
    "groebner.normal_form": ("groebner.normal_form_nonzero",
                             lambda r: int(not r.is_zero()), "sum"),
    "groebner.buchberger": ("groebner.basis_size", len, "max"),
    "groebner.jacobian_minors": ("groebner.minors_used", lambda r: len(r[0]), "sum"),
    "lattices.short_vectors": ("lattices.short_vectors_found", len, "sum"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id or None, name, layer, start, end]
        self.stack = []
        self.counts = {}  # name -> one-element list, cheap to bump
        self.tallies = {}

    def open(self, name, layer):
        rec = [len(self.spans), self.stack[-1] if self.stack else None, name, layer,
               perf_counter(), None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def close(self, rec):
        rec[5] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name, layer):
        rec = self.open(name, layer)
        try:
            yield
        finally:
            self.close(rec)

    def counter(self, name):
        return self.counts.setdefault(name, [0])

    def tally(self, name, value, how):
        old = self.tallies.get(name, 0)
        self.tallies[name] = old + value if how == "sum" else max(old, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, layer, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "layer": layer, "start": start, "end": end}) + "\n")


def span_wrapper(tracer, name, layer, fn, observe=None):
    """`fn` with its outermost calls in spans of the given name and layer."""
    calls = tracer.counter(name)
    busy = [False]  # recursive calls run inside the outermost span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        if busy[0]:
            result = fn(*args, **kwargs)
        else:
            busy[0] = True
            rec = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
                busy[0] = False
        if observe:
            tracer.tally(observe[0], observe[1](result), observe[2])
        return result

    return wrapper


def _count_wrapper(tracer, name, fn, observe):
    calls = tracer.counter(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        result = fn(*args, **kwargs)
        if observe:
            tracer.tally(observe[0], observe[1](result), observe[2])
        return result

    return wrapper


def install(tracer, package="kleinepw"):
    """Wrap every target; returns the list of (owner, attribute, original)
    that `uninstall` puts back."""
    undo = []
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for targets, spanned in ((SPANNED, True), (COUNTED, False)):
        for mod_name, attr in targets:
            module = sys.modules[f"{package}.{mod_name}"]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            observe = OBSERVERS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [getattr(module, cls_name)]
                orig = owners[0].__dict__[meth]
            else:
                owners = modules
                orig = getattr(module, attr)
            if spanned:
                wrapped = span_wrapper(tracer, name, mod_name, orig, observe)
            else:
                wrapped = _count_wrapper(tracer, name, orig, observe)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        setattr(owner, key, wrapped)
                        undo.append((owner, key, orig))
    return undo


def uninstall(undo):
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


# -- analysis ------------------------------------------------------------


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """{span id: duration minus the part its child spans cover}."""
    children = {}
    for sid, parent, _name, _layer, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - _covered(start, end, children.get(sid, ()))
            for sid, _parent, _name, _layer, start, end in spans}


def layer_self_times(spans):
    selfs = self_times(spans)
    out = {}
    for sid, _parent, _name, layer, _start, _end in spans:
        out[layer] = out.get(layer, 0.0) + selfs[sid]
    return out


def by_name(spans):
    """{span name: [durations]}."""
    out = {}
    for _sid, _parent, name, _layer, start, end in spans:
        out.setdefault(name, []).append(end - start)
    return out


def top_level_seconds(spans):
    return sum(end - start for _sid, parent, _n, _l, start, end in spans if parent is None)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
