"""Span tracing of the toepnorm layers, applied from outside the package.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent, case id) in memory.
The wrapper is put into every ``toepnorm`` module namespace that holds the
function, so a call such as ``operators.multiply`` (imported from
``spectral``) is seen as ``spectral.multiply``.  ``estimation.svdvals``, a
SciPy function that estimation looks up by name, is traced as well.

A few spans carry an annotation computed from the call's arguments or
result (section columns, SVD input shapes and content hashes).  Annotation time
is taken off the span clock, so it never shows up as layer time.
"""

from __future__ import annotations

import csv
import functools
import gzip
import hashlib
import inspect
import sys
import time

LAYERS = ("spectral", "weights", "operators", "estimation", "cli",
          "acceptance")
FOREIGN = (("estimation", "svdvals"),)

_SECTION_BUILDERS = ("operators.toeplitz_matrix",
                     "operators.conjugated_toeplitz_matrix",
                     "operators.k0_matrix")
_FFT_ABOVE = 512  # spectral._DIRECT_CONV_LIMIT: longer inputs take the FFT path


def _section_columns(args, kwargs, result):
    return kwargs.get("N", args[-1])


def _multiply_path(args, kwargs, result):
    a, b = args
    return "fft" if max(len(a.coeffs), len(b.coeffs)) > _FFT_ABOVE else "direct"


def _svd_input(args, kwargs, result):
    """Shape, complexity and a content digest of the decomposed section;
    + 0.0 folds -0.0 into 0.0, so equal values hash equally."""
    A = args[0]
    digest = hashlib.blake2b((A + 0.0).tobytes(), digest_size=16).digest()
    return (A.shape[0], A.shape[1], A.dtype.kind == "c", digest)


def _arcs(args, kwargs, result):
    M = args[0].size
    maxM = kwargs.get("maxM", args[2] if len(args) > 2 else 512)
    stride = max(1, -(-M // maxM))
    starts = len(range(0, M, stride))
    lengths = len(range(stride, M + 1, stride)) if stride > 1 else M
    return starts * lengths


_ANNOTATE = {name: _section_columns for name in _SECTION_BUILDERS}
_ANNOTATE.update({
    "spectral.multiply": _multiply_path,
    "estimation.svdvals": _svd_input,
    "weights.ap_characteristic": _arcs,
})


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent, case, error, note)
        self.stack = []
        self.case = -1
        self._paused = 0.0
        self._originals = []  # (module, attribute, original)

    def clock(self) -> float:
        """perf_counter minus the time spent on annotations."""
        return time.perf_counter() - self._paused

    def _wrap(self, name, fn):
        annotate = _ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(sid)
            start = self.clock()
            error = "interrupted"
            note = None
            try:
                result = fn(*args, **kwargs)
                error = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                end = self.clock()
                self.stack.pop()
                if error is None and annotate is not None:
                    t = time.perf_counter()
                    note = annotate(args, kwargs, result)
                    self._paused += time.perf_counter() - t
                self.spans[sid] = (name, start, end, parent, self.case,
                                   error, note)
            return result

        return traced

    def install(self):
        """Wrap the layer functions in every toepnorm module namespace."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"toepnorm.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        for layer, attr in FOREIGN:
            obj = getattr(sys.modules[f"toepnorm.{layer}"], attr)
            targets[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {key: self._wrap(name, obj)
                    for key, (obj, name) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "toepnorm" and not modname.startswith("toepnorm."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()

    def write(self, path):
        """Write every span as one CSV row (gzip)."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "case",
                          "error"])
            for sid, (name, start, end, parent, case, error, _) in \
                    enumerate(self.spans):
                out.writerow([sid, name, repr(start), repr(end), parent, case,
                              error or ""])


def _svd_gflop(rows, cols, complex_):
    """Flops of a values-only SVD by bidiagonalisation, 4mn^2 - 4n^3/3
    (m >= n), times 4 for complex arithmetic; computed, not counted."""
    m, n = max(rows, cols), min(rows, cols)
    flops = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    return (4.0 if complex_ else 1.0) * flops / 1e9


def layer_metrics(spans, cases: int, windows_s: float) -> dict:
    """Per-layer figures of one traced pass over ``cases`` cases whose
    measured windows (on the tracer clock) add up to ``windows_s``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s, errors, notes = {}, {}, {}, {}
    module_self = dict.fromkeys(LAYERS, 0.0)
    root_s = 0.0
    for sid, (name, start, end, parent, case, error, note) in enumerate(spans):
        own = (end - start) - child[sid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        module_self[name.split(".")[0]] += own
        if error is not None:
            errors[name] = errors.get(name, 0) + 1
        if note is not None:
            notes.setdefault(name, []).append(note)
        if parent < 0:
            root_s += end - start

    def per_case(x):
        return x / cases

    def frac(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("spectral.multiply", "estimation.svdvals", "cli.main"):
        m[f"{name}.calls"] = (per_case(calls.get(name, 0)), "calls/case")
    for name in ("spectral.multiply", "spectral.riesz_project",
                 "spectral.analyze", "spectral.synthesize",
                 "operators.conjugated_toeplitz_matrix", "operators.k0_matrix",
                 "operators.toeplitz_matrix", "operators.symbol_sup",
                 "estimation.assemble_section", "estimation.essential_bracket",
                 "estimation.svdvals", "weights.ap_characteristic",
                 "weights.outer_pair", "weights.outer_pair_refined",
                 "weights.outer_pair_exact", "weights.sample_power_weight",
                 "cli.main"):
        m[f"{name}.self_s"] = (per_case(self_s.get(name, 0.0)), "s/case")
    # acceptance is not on any workload's path
    for layer in ("spectral", "weights", "operators", "estimation", "cli"):
        m[f"{layer}.self_s"] = (per_case(module_self[layer]), "s/case")

    paths = notes.get("spectral.multiply", [])
    m["spectral.multiply.fft_frac"] = (
        frac(paths.count("fft"), len(paths)), "ratio")

    columns = sum(sum(notes.get(name, [])) for name in _SECTION_BUILDERS)
    under_operators = 0
    for name, _, _, parent, *_ in spans:
        if name != "spectral.multiply":
            continue
        while parent >= 0 and not spans[parent][0].startswith("operators."):
            parent = spans[parent][3]
        under_operators += parent >= 0
    m["operators.multiply_per_column"] = (frac(under_operators, columns),
                                          "calls/column")

    svds = notes.get("estimation.svdvals", [])
    m["estimation.svdvals.real_frac"] = (
        frac(sum(not c for _, _, c, _ in svds), len(svds)), "ratio")
    m["estimation.svdvals.gflop_computed"] = (
        per_case(sum(_svd_gflop(r, c, z) for r, c, z, _ in svds)), "GFLOP/case")
    m["estimation.distinct_section_frac"] = (
        frac(len({d for *_, d in svds}), len(svds)), "ratio")

    m["weights.ap_characteristic.arcs"] = (
        per_case(sum(notes.get("weights.ap_characteristic", []))), "arcs/case")
    for name in ("weights.outer_pair", "weights.outer_pair_refined"):
        m[f"{name}.fail_frac"] = (frac(errors.get(name, 0),
                                       calls.get(name, 0)), "ratio")
    m["unattributed_frac"] = (frac(windows_s - root_s, windows_s), "ratio")
    return m
