"""Span tracer that wraps trapprob's layer functions from the outside.

Callers inside the package bind names with ``from ... import``, so patching
the defining module alone records nothing.  ``Tracer.install`` therefore
rebinds every module attribute of the loaded ``trapprob`` package that is
the target function (``trapprob.verify.sample_batch``,
``trapprob.disk_oracle.k0``, ``trapprob.cli.write_csv`` ...), and
``Tracer.uninstall`` puts the originals back.  Nothing is patched unless a
traced run asks for it.

Each call of a wrapped function records one span: name, start, end and the
id of the enclosing span, in flat arrays kept in memory until the run ends.
Self times are computed from the spans afterwards: a span's duration minus
the durations of its direct children.
"""

import os
import sys
from array import array
from time import perf_counter

import numpy as np

# (defining module, attribute, span name).  Order is irrelevant; every
# binding of the attribute's object in the package is wrapped.
TARGETS = (
    ("trapprob.cli", "main", "main"),
    ("trapprob.verify", "check_theorem1", "check_theorem1"),
    ("trapprob.verify", "figure_series", "figure_series"),
    ("trapprob.segment_sim", "sample_batch", "sample_batch"),
    ("trapprob.segment_sim", "philox_stream", "philox_stream"),
    ("trapprob.segment_sim", "release_circle", "release_circle"),
    ("trapprob.segment_sim", "survival_curve", "survival_curve"),
    ("trapprob.segment_sim", "abelian_estimate", "abelian_estimate"),
    ("trapprob.specfun", "bessel_j0_y0", "bessel_j0_y0"),
    ("trapprob.specfun", "k0", "k0"),
    ("trapprob.specfun", "k0_bounds", "k0_bounds"),
    ("trapprob.disk_oracle", "p_disk", "p_disk"),
    ("trapprob.disk_oracle", "f_disk", "f_disk"),
    ("trapprob.reporting", "write_csv", "write_csv"),
    ("trapprob.reporting", "svg_lineplot", "svg_lineplot"),
    ("trapprob.reporting", "write_manifest", "write_manifest"),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "trapprob" or name.startswith("trapprob.")]


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.data = {}  # span id -> what the hook recorded
        self.integrand_evals = 0
        self.missing = []
        self._stack = [-1]
        self._undo = []
        self._pending = []  # (span id, sample_batch result), analysed after each pass

    # -- recording ---------------------------------------------------------

    def _wrap(self, span_name, fn, after=None):
        k = len(self.names)
        self.names.append(span_name)
        name, parent, start, end, raised, stack = (
            self.name, self.parent, self.start, self.end, self.raised, self._stack)

        def traced(*args, **kwargs):
            i = len(start)
            name.append(k)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(i, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, module_name, attr, wrapper_for):
        module = sys.modules.get(module_name)
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = wrapper_for(orig)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self):
        hooks = {
            "check_theorem1": lambda i, args, res: self.data.__setitem__(i, (float(args[1]), float(args[2]))),
            "sample_batch": lambda i, args, res: self._pending.append((i, res)),
            "bessel_j0_y0": self._count_bessel_elements,
            "write_csv": self._count_csv_bytes,
        }
        for module_name, attr, span_name in TARGETS:
            self._rebind(module_name, attr, lambda fn: self._wrap(span_name, fn, hooks.get(span_name)))

        # The quadrature's evaluation count is a counter, not a span, so that
        # p_disk's self time keeps the quadrature bookkeeping it does itself.
        def count_evals(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.integrand_evals += result[2]
                return result

            return counted

        self._rebind("trapprob.disk_oracle", "_adaptive_gk", count_evals)

        conformal = sys.modules["trapprob.conformal"]
        cls = conformal.PlanePoint
        self._undo.append((cls, "__post_init__", cls.__dict__["__post_init__"]))
        cls.__post_init__ = self._wrap("PlanePoint", cls.__dict__["__post_init__"])
        self._jy_split = sys.modules["trapprob.specfun"].JY_SERIES_MAX_X

    def uninstall(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def _count_bessel_elements(self, i, args, result):
        x = np.asarray(args[0], dtype=float)
        self.data[i] = (int(np.count_nonzero(x <= self._jy_split)), int(x.size))

    def _count_csv_bytes(self, i, args, result):
        self.data[i] = os.path.getsize(args[0])

    def end_pass(self):
        """Summarise the trajectories returned during the pass and drop them."""
        for i, records in self._pending:
            steps = np.fromiter((rec.steps for rec in records), dtype=np.int64)
            censored = int(sum(rec.censored for rec in records))
            self.data[i] = (steps.size, int(steps.sum()), int(steps.max(initial=0)), steps.size - censored, censored)
        self._pending.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return name, parent, dur, dur - child

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            raised=np.array(self.raised, dtype=np.int8),
        )

    def layer_metrics(self, passes):
        """Per-layer metrics, per pass (every pass does identical work)."""
        name, parent, dur, self_s = self.arrays()
        ids = {n: k for k, n in enumerate(self.names)}
        raised = np.array(self.raised, dtype=np.int8) == 1

        def mask(n):
            return name == ids.get(n, -1)

        def child_of(parent_mask):
            out = np.zeros(name.size, dtype=bool)
            out[parent >= 0] = parent_mask[parent[parent >= 0]]
            return out

        def calls(n):
            return int(np.count_nonzero(mask(n)))

        def total(n):
            return float(dur[mask(n)].sum())

        def own(n):
            return float(self_s[mask(n)].sum())

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        def data(n):
            return [self.data[i] for i in np.flatnonzero(mask(n)) if i in self.data]

        traj = data("sample_batch")  # (trajectories, steps, steps_max, captured, censored)
        steps = sum(t[1] for t in traj)
        sb_s = total("sample_batch")
        philox_in_sb = float(dur[mask("philox_stream") & child_of(mask("sample_batch"))].sum())
        elements = data("bessel_j0_y0")  # (series branch, all)
        n_series = sum(e[0] for e in elements)
        n_elements = sum(e[1] for e in elements)
        bessel_children = np.bincount(parent[mask("bessel_j0_y0") & child_of(mask("p_disk"))], minlength=name.size)

        per_pass = {
            "sample_batch.trajectories": sum(t[0] for t in traj),
            "sample_batch.s": sb_s,
            "sample_batch.self_s": own("sample_batch"),
            "steps": steps,
            "captured": sum(t[3] for t in traj),
            "censored": sum(t[4] for t in traj),
            "philox_stream.calls": calls("philox_stream"),
            "philox_stream.s": total("philox_stream"),
            "release_circle.s": total("release_circle"),
            "survival_curve.s": total("survival_curve"),
            "abelian_estimate.s": total("abelian_estimate"),
            "PlanePoint.constructed": calls("PlanePoint"),
            "PlanePoint.s": total("PlanePoint"),
            "bessel_j0_y0.calls": calls("bessel_j0_y0"),
            "bessel_j0_y0.elements_series": n_series,
            "bessel_j0_y0.elements_asymptotic": n_elements - n_series,
            "k0.calls": calls("k0"),
            "k0_bounds.calls": calls("k0_bounds"),
            "p_disk.calls": calls("p_disk"),
            "p_disk.integrand_evals": self.integrand_evals,
            "p_disk.shortcut_calls": int(np.count_nonzero(mask("p_disk") & (bessel_children == 0))),
            "f_disk.calls": calls("f_disk"),
            "f_disk.failed": int(np.count_nonzero(mask("f_disk") & raised)),
            "check_theorem1.calls": calls("check_theorem1"),
            "check_theorem1.self_s": own("check_theorem1"),
            "figure_series.self_s": own("figure_series"),
            "write_csv.calls": calls("write_csv"),
            "write_csv.bytes": sum(data("write_csv")),
            "write_csv.s": total("write_csv"),
            "svg_lineplot.s": total("svg_lineplot"),
            "write_manifest.s": total("write_manifest"),
            "main.self_s": own("main"),
        }
        out = {key: value / passes for key, value in per_pass.items()}
        out.update(
            {
                "steps_max": max((t[2] for t in traj), default=0),
                "steps_per_s": ratio(steps, sb_s),
                "philox_stream.share": ratio(philox_in_sb, sb_s),
                "bessel_j0_y0.ns_per_element": ratio(total("bessel_j0_y0"), n_elements, 1e9),
                "k0.us_per_call": ratio(total("k0"), calls("k0"), 1e6),
                "k0_bounds.us_per_call": ratio(total("k0_bounds"), calls("k0_bounds"), 1e6),
                "p_disk.ms_per_call": ratio(total("p_disk"), calls("p_disk"), 1e3),
                "p_disk.self_ms_per_call": ratio(own("p_disk"), calls("p_disk"), 1e3),
                "f_disk.us_per_call": ratio(total("f_disk"), calls("f_disk"), 1e6),
            }
        )
        return out

    def combos(self, passes):
        """(r, tau, captured, censored) per check_theorem1 call, per pass."""
        name, parent, _, _ = self.arrays()
        sums = {}
        for i in np.flatnonzero(name == (self.names.index("sample_batch") if "sample_batch" in self.names else -1)):
            key = self.data.get(int(parent[i]))  # (r, tau) of the enclosing check_theorem1
            if key is not None:
                got = sums.setdefault(key, [0, 0])
                got[0] += self.data[i][3]
                got[1] += self.data[i][4]
        return [(r, tau, cap / passes, cen / passes) for (r, tau), (cap, cen) in sums.items()]
