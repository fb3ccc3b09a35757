"""Span recorder and the traced form of each workload operation.

Spans are recorded by the benchmark around public calls into
``weylinv.contour``, ``weylinv.forward`` and ``weylinv.inverse``; the
library itself is not instrumented. Each span keeps its name, start,
end, parent, workload, seed and operation number in memory until the
run writes them out. A span that an exception passes through also keeps
the exception's type.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from weylinv import (WeylData, build_contour, extract_A, generate_weyl_data,
                     invert, matnorm, recover_potential, solve_main_equation,
                     solve_regular, weyl_matrix)
from weylinv.forward import adjoint_weyl_matrix

import workloads as wl


def layer(name: str) -> str:
    return name.split(".")[0]


class Tracer:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.op = 0
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "seed": self.seed, "op": self.op}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict:
        """Total self time per layer: span time not covered by children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s, c in zip(self.spans, child):
            key = layer(s["name"])
            out[key] = out.get(key, 0.0) + (s["end"] - s["start"] - c)
        return out

    def failures(self) -> dict:
        """Exceptions per layer, counted at the innermost span they left."""
        outer = {s["parent"] for s in self.spans if "error" in s}
        out = {}
        for i, s in enumerate(self.spans):
            if "error" in s and i not in outer:
                out[layer(s["name"])] = out.get(layer(s["name"]), 0) + 1
        return out


def _traced_forward(tr: Tracer, case, sizes, reference):
    """generate_weyl_data, one public weyl_matrix call at a time.

    reference is the untraced WeylData of the same problem: its tail
    points are reused and its samples must be reproduced exactly.
    """
    with tr.span("contour.build"):
        contour = build_contour(**sizes.contour_kwargs())
    with tr.span("forward.generate"):
        M = []
        for node in contour.nodes:
            seg = "circle" if node.segment == "circle" else "cut"
            with tr.span(f"forward.weyl_matrix_{seg}"):
                M.append(weyl_matrix(case.problem, node.point))
        tail = []
        for pt, _ in reference.tail_samples:
            with tr.span("forward.weyl_matrix_tail"):
                tail.append((pt, weyl_matrix(case.problem, pt)))
        data = WeylData(contour=contour, M_samples=np.array(M),
                        tail_samples=tuple(tail))
        if not np.array_equal(data.M_samples, reference.M_samples):
            raise AssertionError("traced forward differs from generate_weyl_data")
    return data


def traced_roundtrip(tr: Tracer, out: wl.Outcome, case, contour, sizes):
    """An untraced round trip as the overhead base, then the traced one:
    extract_A, solve_main_equation at every x, recover_potential, a
    one-pass invert and the full invert, each as its own span."""
    config = sizes.invert_config()
    with out.stage("plain_forward_s"):
        ref = generate_weyl_data(case.problem, contour)
    with out.stage("plain_invert_s"):
        ref_result = invert(ref, config)

    with tr.span("op"):
        data = _traced_forward(tr, case, sizes, ref)
        with tr.span("inverse.extract_A"):
            A = extract_A(data.tail_samples)
        sols = []
        with tr.span("inverse.slices"):
            for x in np.linspace(0.0, config.x_max, config.x_nodes):
                with tr.span("inverse.slice_solve"):
                    sols.append(solve_main_equation(
                        data, A, x, cond_limit=config.system_cond_limit))
        with tr.span("inverse.recover_potential"):
            recover_potential(sols, data, A, config.lambda_probes,
                              phi_cond_limit=config.phi_cond_limit,
                              edge_layer=1.5 / np.sqrt(contour.R))
        with tr.span("inverse.invert_pass1"):
            invert(data, sizes.invert_config(passes=1))
        with tr.span("inverse.invert"):
            result = invert(data, config)

    out.times["forward_s"] = tr.durations("forward.generate")[-1]
    out.times["invert_s"] = tr.durations("inverse.invert")[-1]
    out.values = wl.roundtrip_accuracy(case, result)
    out.values.update(result.diagnostics)
    out.problems += wl.roundtrip_problems(case, result, out.values)
    if not np.array_equal(result.Q.values, ref_result.Q.values):
        out.problems.append("traced invert differs from untraced invert")


def traced_forward(tr: Tracer, out: wl.Outcome, case, contour, sizes):
    """An untraced forward as the overhead base, then the traced forward
    and the certification one point and one public call at a time."""
    with out.stage("plain_forward_s"):
        ref = generate_weyl_data(case.problem, contour)

    with tr.span("op"):
        data = _traced_forward(tr, case, sizes, ref)
        mstar = 0.0
        regulars = []
        with tr.span("forward.certify"):
            for pt in case.points:
                with tr.span("forward.weyl_matrix_certify"):
                    M = weyl_matrix(case.problem, pt)
                with tr.span("forward.adjoint_weyl"):
                    Ms = adjoint_weyl_matrix(case.problem, pt)
                mstar = max(mstar, matnorm(M - Ms))
                with tr.span("forward.solve_regular"):
                    regulars.append(solve_regular(case.problem, pt))

    out.times["forward_s"] = tr.durations("forward.generate")[-1]
    out.times["certify_s"] = tr.durations("forward.certify")[-1]
    out.values = {"mstar_resid": mstar}
    out.problems += wl.forward_problems(data, mstar, regulars)
