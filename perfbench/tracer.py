"""Spans recorded from outside qhj: wrap module functions, time each layer.

The tracer replaces selected functions of the qhj modules with timing
wrappers, so nothing under src/ is edited.  Every reference to a wrapped
function held by any loaded qhj module (``from .x import f`` copies) is
replaced too, otherwise calls made through the copy would go unseen.  A
target that no longer exists raises at install time, so a renamed or moved
function fails the traced run instead of reading as 0 ms.

Each span records name, start, end, parent span and operation id, plus the
process CPU time spent between its ends.  Spans stay in memory until the
run writes them out.

Kernel accounting for the oracle eigensolves is computed, not counted by
hardware: the flop and byte figures below come from a stated model of each
LAPACK driver applied to the matrix order and the number of eigenpairs.

* ``eigh`` (dense symmetric, all eigenpairs): 9 n^3 flops (tridiagonal
  reduction, back-transformation and implicit QR; Golub & Van Loan,
  *Matrix Computations*, 4th ed., Sec. 8.3); bytes = matrix in + vectors
  out = 2 n^2 words.
* ``eig`` (dense general, all eigenpairs): 25 n^3 real flops (Hessenberg
  reduction plus shifted QR with eigenvectors, Golub & Van Loan Sec. 7.5),
  times 4 for complex data; bytes = 2 n^2 words.
* ``eigh_tridiagonal`` with an index range of k pairs (bisection plus
  inverse iteration): 200 n k flops (about 53 Sturm counts of 3 n flops per
  eigenvalue and 5 inverse-iteration sweeps of 10 n flops per vector);
  bytes = (2n - 1) words in + n k words out.

A word is the array's itemsize (8 bytes real, 16 bytes complex).
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs wrapped as spans named "<module>.<function>"
SPAN_TARGETS = (
    ("cli", "main"),
    ("potential_catalog", "get_model"),
    ("quantization", "quantize"),
    ("quantization", "enumerate_assignments"),
    ("polynomial_system", "solve_spectrum"),
    ("polynomial_system", "build_pencil"),
    ("polynomial_system", "solve_pencil"),
    ("polynomial_system", "build_fixed_system"),
    ("schrodinger_oracle", "solve_bound"),
    ("schrodinger_oracle", "solve_band_edges"),
    ("schrodinger_oracle", "solve_inverse_square_cell"),
    ("schrodinger_oracle", "solve_pt"),
    ("wavefunction_assembly", "verify_against_oracle"),
)

# scipy eigensolvers as bound in schrodinger_oracle, all under one span name
EIG_TARGETS = ("eig", "eigh", "eigh_tridiagonal")
EIG_SPAN = "schrodinger_oracle.eig"
SPAN_KEYS = ("id", "name", "start", "end", "parent", "op", "cpu_s", "attrs")

ORACLE_SOLVES = tuple("schrodinger_oracle.%s" % fn
                      for mod, fn in SPAN_TARGETS if mod == "schrodinger_oracle")


def qhj_modules():
    """The loaded qhj package and submodules, keyed by short name."""
    return {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
            if name == "qhj" or name.startswith("qhj.")}


def _eig_attrs(kind, args, out):
    """Matrix order, eigenpair count and the computed flops and bytes."""
    first = args[0]
    n, word = len(first), first.dtype.itemsize
    k = len(out[0] if isinstance(out, tuple) else out)
    if kind == "eigh_tridiagonal":
        flops, nbytes = 200.0 * n * k, word * ((2 * n - 1) + n * k)
    elif kind == "eigh":
        flops, nbytes = 9.0 * n ** 3, word * 2 * n * n
    else:
        flops = 25.0 * n ** 3 * (4 if first.dtype.kind == "c" else 1)
        nbytes = word * 2 * n * n
    return {"kind": kind, "order": n, "pairs": k,
            "flops_computed": flops, "bytes_computed": nbytes}


def _return_attrs(name, out):
    """Counts taken at the layer boundary from the returned value."""
    if name == "polynomial_system.build_pencil":
        return {"order": int(out.M0.shape[0])}
    if name == "polynomial_system.solve_pencil":
        return {"raw": len(out)}
    if name == "polynomial_system.build_fixed_system":
        return {"raw": 1}
    if name == "polynomial_system.solve_spectrum":
        return {"kept": len(out.solutions)}
    if name == "schrodinger_oracle.solve_pt":
        return {"kept": len(out.eigenvalues)}
    return None


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.enabled = True    # when False the wrappers only pass calls through
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # oracle work submitted to a thread pool: the submitting span is the
        # innermost one open on the main thread, which waits on the result
        if threading.get_ident() != self._main and self._main_stack:
            return self._main_stack[-1]
        return None

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run fn inside a span; attrs(args, out) adds counts to it."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        extra = {"raised": True}
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = fn(*args, **kwargs)
            extra = attrs(args, out) if attrs else None
            return out
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.op_id,
                               c1 - c0, extra))

    def operation(self, op_id, fn, *args):
        """Root span for one benchmark operation."""
        self.op_id = op_id
        try:
            return self.call("op", fn, args, {})
        finally:
            self.op_id = None

    def install(self):
        """Wrap every target, in every loaded qhj module that refers to it."""
        for mod_name, _ in SPAN_TARGETS:
            importlib.import_module("qhj." + mod_name)
        modules = qhj_modules()
        for mod_name, fn_name in SPAN_TARGETS:
            orig = getattr(modules[mod_name], fn_name)
            name = "%s.%s" % (mod_name, fn_name)
            wrapper = self._wrapper(
                name, orig, lambda args, out, name=name: _return_attrs(name, out))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
        oracle = modules["schrodinger_oracle"]
        for kind in EIG_TARGETS:
            setattr(oracle, kind, self._wrapper(
                EIG_SPAN, getattr(oracle, kind),
                lambda args, out, kind=kind: _eig_attrs(kind, args, out)))

    def _wrapper(self, name, orig, attrs):
        def wrapper(*args, **kwargs):
            return self.call(name, orig, args, kwargs, attrs)

        return wrapper


def span_records(spans):
    """Spans as JSON-ready dicts."""
    return [dict(zip(SPAN_KEYS, s)) for s in spans]


def load_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(rec[k] for k in SPAN_KEYS) for rec in json.load(fh)]


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(span_groups):
    """Per-name totals over one or more span lists (one list per process).

    Returns ({name: {"calls", "self_s", "wall_s", "cpu_s", "attrs"}} as a
    defaultdict, so names that never fired read as zero, and
    [(kept, fine order)] for each solve_pt span), where the fine order is
    the largest eigensolve order below that span.
    """
    rows = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "wall_s": 0.0,
                                "cpu_s": 0.0, "attrs": []})
    pt_kept = []
    for spans in span_groups:
        children = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                children[s[4]].append(s)
        for sid, name, t0, t1, _parent, _op, cpu, attrs in spans:
            kids = children.get(sid, ())
            row = rows[name]
            row["calls"] += 1
            row["wall_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - _covered([(k[2], k[3]) for k in kids], t0, t1)
            row["cpu_s"] += cpu
            if attrs:
                row["attrs"].append(attrs)
            if name == "schrodinger_oracle.solve_pt" and attrs and "kept" in attrs:
                orders = [k[7]["order"] for k in kids
                          if k[1] == EIG_SPAN and k[7] and "order" in k[7]]
                pt_kept.append((attrs["kept"], max(orders, default=0)))
    return rows, pt_kept


def parse_importtime(stderr_text):
    """Import cost in ms owned by numpy, scipy and qhj, from -X importtime.

    A module's self time belongs to the outermost numpy or scipy import
    around it (or itself), so modules that scipy pulls in, numpy submodules
    included, count as scipy's cost.  Outside those, a module belongs to qhj
    when qhj imported it; anything else (the interpreter's own start-up
    imports) belongs to none.  Entries are printed children-first, so the
    tree is read in reverse.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        raw = parts[2].rstrip("\n")
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        rows.append((int(parts[0]), depth, raw.strip().split(".")[0]))
    owned = {"numpy": 0.0, "scipy": 0.0, "qhj": 0.0}
    owners = {}
    for self_us, depth, top in reversed(rows):
        owner = owners.get(depth - 1)
        if owner not in ("numpy", "scipy") and top in owned:
            owner = top
        owners[depth] = owner
        if owner is not None:
            owned[owner] += self_us / 1000.0
    return owned
