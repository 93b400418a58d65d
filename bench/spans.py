"""Span tracing of matvt's layers from outside the package.

Each traced function is replaced, at every module attribute that names it,
by a wrapper that records one span: name, start, end and the span that was
open when it was called.  Spans live in flat arrays while the benchmark
runs and are written out when it ends.  Self time is a span's duration
minus the durations of its direct children.  The wrappers pass arguments
and results through untouched, so a traced fit takes the same path as an
untraced one.
"""

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function, span name); every module attribute bound to the
# function is patched, so calls made through ``from .x import f`` copies are
# seen too
LAYERS = [
    ("matvt.mxvt", "mxvt_fit", "mxvt.fit"),
    ("matvt.mxvt", "estep", "mxvt.estep"),
    ("matvt.mxvt", "cme1", "mxvt.cme1"),
    ("matvt.mxvt", "solve_nu", "mxvt.solve_nu"),
    ("matvt.mxvn", "mxvn_fit", "mxvn.fit"),
    ("matvt.distributions", "t_bracket", "distributions.t_bracket"),
    ("matvt.distributions", "mxvt_logpdf", "distributions.mxvt_logpdf"),
    ("matvt.distributions", "mxvn_logpdf", "distributions.mxvn_logpdf"),
    ("matvt.distributions", "sample_mxvt", "distributions.sample_mxvt"),
    ("matvt.linalg", "solve_lower_batch", "linalg.solve_lower_batch"),
    ("matvt.linalg", "cholesky_logdet", "linalg.cholesky_logdet"),
    ("matvt.linalg", "safe_cholesky", "linalg.safe_cholesky"),
    ("matvt.specfun", "lmvgamma", "specfun.lmvgamma"),
    ("matvt.specfun", "mvdigamma", "specfun.mvdigamma"),
    ("matvt.structures", "update_scatter_inverse", "structures.update_scatter_inverse"),
    ("matvt.structures", "structured_scatter_direct", "structures.structured_scatter_direct"),
    ("matvt.structures", "constrained_mean", "structures.constrained_mean"),
    ("matvt.classify", "train", "classify.train"),
    ("matvt.classify", "scores", "classify.scores"),
    ("matvt.classify", "predict", "classify.predict"),
    ("matvt.classify", "loocv", "classify.loocv"),
]

# the bounded search inside mxvt_fit; structures and classify import the
# same scipy function for other searches, so only this one attribute is
# patched
NU_FALLBACK = ("matvt.mxvt", "minimize_scalar", "mxvt.nu_fallback")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters = {}
        self._patched = []

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, name, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        on_exit = _ON_EXIT.get(name)
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1])
            self.span_end.append(0.0)
            self.stack.append(i)
            self.span_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.span_end[i] = clock()
                self.stack.pop()
            if on_exit is not None:
                on_exit(self, i, args, kwargs, out)
            return out

        return traced

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k == "matvt" or k.startswith("matvt.")]
        for mod_name, attr, span in LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)
        mod_name, attr, span = NU_FALLBACK
        mod = sys.modules[mod_name]
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, self._wrap(span, getattr(mod, attr)))

    def uninstall(self):
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    def arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        start = np.frombuffer(self.span_start, dtype=np.float64).copy()
        end = np.frombuffer(self.span_end, dtype=np.float64).copy()
        return name, parent, start, end

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        name, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        return {
            self.names[j]: {
                "calls": int(c),
                "total_s": float(t),
                "self_s": float(s),
            }
            for j, (c, t, s) in enumerate(
                zip(
                    np.bincount(name, minlength=k),
                    np.bincount(name, weights=dur, minlength=k),
                    np.bincount(name, weights=own, minlength=k),
                )
            )
        }

    def count_under(self, name, ancestor):
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        if name not in self.name_ids or ancestor not in self.name_ids:
            return 0
        target, anc = self.name_ids[name], self.name_ids[ancestor]
        span_name, parent = self.span_name, self.span_parent
        inside = bytearray(len(span_name))
        hits = 0
        # a parent's index is always below its children's, so one forward
        # pass settles every span
        for i in range(len(span_name)):
            j = parent[i]
            if j >= 0 and (span_name[j] == anc or inside[j]):
                inside[i] = 1
                if span_name[i] == target:
                    hits += 1
        return hits

    def write(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)


def _fit_done(prefix):
    def on_exit(tracer, i, args, kwargs, result):
        tracer.count(prefix + ".iterations", result.iterations)

    return on_exit


def _train_done(tracer, i, args, kwargs, result):
    if kwargs.get("pooled"):
        tracer.count("classify.train_pooled_s", tracer.span_end[i] - tracer.span_start[i])


def _loocv_done(tracer, i, args, kwargs, result):
    tracer.count("classify.loocv.refits", result[2])


_ON_EXIT = {
    "mxvt.fit": _fit_done("mxvt"),
    "mxvn.fit": _fit_done("mxvn"),
    "classify.train": _train_done,
    "classify.loocv": _loocv_done,
}
