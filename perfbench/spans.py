"""In-memory spans around the program's layer boundaries.

`Tracer.install` replaces the public functions of each milnorscope
module, as seen by every module that imported them, with wrappers that
record a span: name, start, end, parent span and job id.  Nothing in
`src/` is edited and `uninstall` puts the originals back.  Spans go into
one flat int64 array, five slots each, and are summarised (calls, self
time = span minus its direct children) or saved only after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

PKG = "milnorscope"
FIELDS = ("name", "start_ns", "end_ns", "parent", "job")
_W = len(FIELDS)


def _points(args, result) -> int:
    X = np.asarray(args[1])
    return 1 if X.ndim == 1 else X.shape[0]


def layer_targets():
    """(span name, owner, attribute, counter) for every wrapped callable.

    The counter, if any, gets (counts, args, result) after each call.
    Value types of `mixed` (ComplexRational, MixedTerm) are left out: their
    methods cost less than a span does.
    """
    mods = {name: sys.modules[f"{PKG}.{name}"] for name in
            ("cli", "fiber", "mixed", "parsing", "realpoly", "sampling",
             "serialize", "structure", "transversality")}
    rp = mods["realpoly"].RealPolynomialMap
    dmp = mods["mixed"].DiagonalMixedPolynomial

    def count_points(key):
        def counter(counts, args, result):
            counts[key] += _points(args, result)
        return counter

    def count_search(counts, args, result):
        counts["transversality.search.attempted"] += result.attempted
        counts["transversality.search.converged"] += result.converged

    def count_fiber(counts, args, result):
        counts["fiber.points_kept"] += len(result.points)
        counts["fiber.seeds"] += result.seed_count

    targets = [
        ("realpoly.eval_many", rp, "eval_many", count_points("realpoly.eval_many.points")),
        ("realpoly.grad_many", rp, "grad_many", count_points("realpoly.grad_many.points")),
        ("transversality.search", mods["transversality"], "search_tangency_locus", count_search),
        ("transversality.falsify", mods["transversality"], "falsify_transversality", None),
        ("fiber.sample", mods["fiber"], "sample_fiber", count_fiber),
        ("structure.analyze", mods["structure"], "analyze", None),
        ("cli", mods["cli"], "main", None),
    ]
    targets += [("sampling", mods["sampling"], a, None)
                for a in ("sphere_points", "ball_points")]
    targets += [("parsing", mods["parsing"], a, None)
                for a in ("parse_mixed", "parse_real_map", "render_mixed", "render_real_map")]
    targets += [("mixed", dmp, a, None)
                for a in ("term_for", "eval", "eval_many", "wirtinger", "real_jacobian",
                          "to_real_map", "conj_swap", "scale")]
    targets += [("mixed", mods["mixed"], a, None)
                for a in ("complex_to_reals", "reals_to_complex")]
    targets += [("serialize", mods["serialize"], a, None)
                for a in ("floatlist", "psi_json", "map_json", "structure_json",
                          "witness_json", "transversality_json", "fiber_json",
                          "fiber_compare_json", "flow_params_json", "fiber_csv", "dumps")]
    return targets


class Tracer:
    """Records spans while installed; may be installed and removed per job."""

    def __init__(self):
        self._ids: dict[str, int] = {}       # span name -> id, in first-use order
        self.spans = array("q")
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        nid = self._ids.setdefault(name, len(self._ids))
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans) // _W
            spans.extend((nid, 0, 0, stack[-1] if stack else -1, self.job))
            stack.append(idx)
            spans[idx * _W + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * _W + 2] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result
        return wrapper

    @property
    def names(self) -> list[str]:
        return list(self._ids)

    def install(self) -> None:
        """Wrap every layer target; spans from all installs share one table."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PKG or k.startswith(PKG + "."))]
        for name, owner, attr, counter in layer_targets():
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapped)
                continue
            # functions are also reachable through `from x import f` copies
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __len__(self) -> int:
        return len(self.spans) // _W

    def table(self) -> np.ndarray:
        # a copy: a live view would pin the array's buffer against growth
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _W).copy()

    def summary(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        t = self.table()
        dur = (t[:, 2] - t[:, 1]).astype(float)
        child = np.zeros(len(t))
        has_parent = t[:, 3] >= 0
        np.add.at(child, t[has_parent, 3], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(t[:, 0], minlength=k)
        self_ns = np.bincount(t[:, 0], weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(self_ns[i]) * 1e-9)
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), fields=np.asarray(FIELDS),
                            spans=self.table())
