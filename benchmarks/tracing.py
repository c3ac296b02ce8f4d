"""Spans around superschur's public functions, installed from outside.

``Tracer.install`` replaces each listed function or method by a wrapper that
records one span (layer name, start, end, parent span) per call.  Spans are
kept in flat arrays while the traced run goes on and written out when it
ends; ``layer_metrics`` turns them into calls, self time and the few extra
counts the layers report.  Nothing in superschur itself is changed on disk.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

import superschur.cli
import superschur.commutant
import superschur.grassmann
import superschur.suites
import superschur.supermatrix
import superschur.tableaux
import superschur.tensor

_com = superschur.commutant
_sm = superschur.supermatrix
_ten = superschur.tensor
_gr = superschur.grassmann


def _unknowns(args, result) -> int:
    dim, r = args[0], args[1]
    return (dim.size ** r) ** 2


# (layer name, owner, attribute, extra count name, extra count from (args, result))
LAYERS = [
    ("cli.main", superschur.cli, "main", None, None),
    ("suites.run_suite", superschur.suites, "run_suite", None, None),
    ("commutant.rowspace_add", _com.RowSpace, "add", "grew", lambda a, res: int(res)),
    ("commutant.algebra_generated", _com, "algebra_generated", None, None),
    ("commutant.centralizer", _com, "centralizer", "unknowns", _unknowns),
    ("commutant.kernel_basis", _com, "kernel_basis", None, None),
    ("commutant.space_equals", _com.RowSpace, "equals", None, None),
    ("tensor.operator_mul", _ten.TensorOperator, "__mul__", None, None),
    ("tensor.operator_eq", _ten.TensorOperator, "__eq__", None, None),
    ("tensor.transposition_operator", _ten, "transposition_operator", None, None),
    ("tensor.derivation_operator", _ten, "derivation_operator", None, None),
    ("tensor.point_derivation_operator", _ten, "point_derivation_operator", None, None),
    ("tensor.diagonal_operator", _ten, "diagonal_operator", None, None),
    ("supermatrix.mul", _sm.SuperMatrix, "__mul__", None, None),
    ("supermatrix.superbracket", _sm, "superbracket", None, None),
    ("supermatrix.berezinian", _sm, "berezinian", None, None),
    ("supermatrix.ldu_factor", _sm, "ldu_factor", None, None),
    ("supermatrix.even_det", _sm, "even_det", None, None),
    ("supermatrix.even_matrix_inverse", _sm, "even_matrix_inverse", None, None),
    ("supermatrix.from_json", _sm.SuperMatrix, "from_json", None, None),
    ("grassmann.mul", _gr.GrassmannElement, "__mul__", None, None),
    ("grassmann.inverse", _gr.GrassmannElement, "inverse", None, None),
    ("tableaux.dimension_table", superschur.tableaux, "dimension_table", None, None),
    ("tableaux.enumerate_ssyt", superschur.tableaux, "enumerate_ssyt", None, None),
]


# The per-layer metrics a traced run reports: those an optimisation of the
# layer is expected to move (see README.md for which end-to-end metric).
REPORTED = [
    "cli.main.calls",
    "cli.main.self_s",
    "suites.run_suite.calls",
    "suites.run_suite.self_s",
    "commutant.rowspace_add.calls",
    "commutant.rowspace_add.grew",
    "commutant.rowspace_add.useful_ratio",
    "commutant.rowspace_add.self_s",
    "commutant.algebra_generated.calls",
    "commutant.algebra_generated.self_s",
    "commutant.centralizer.calls",
    "commutant.centralizer.self_s",
    "commutant.centralizer.unknowns",
    "commutant.kernel_basis.self_s",
    "commutant.space_equals.self_s",
    "tensor.operator_mul.calls",
    "tensor.operator_mul.self_s",
    "tensor.transposition_operator.self_s",
    "tensor.derivation_operator.self_s",
    "tensor.point_derivation_operator.self_s",
    "tensor.diagonal_operator.calls",
    "tensor.diagonal_operator.self_s",
    "tensor.operator_eq.self_s",
    "supermatrix.mul.calls",
    "supermatrix.mul.self_s",
    "supermatrix.superbracket.self_s",
    "supermatrix.berezinian.calls",
    "supermatrix.berezinian.self_s",
    "supermatrix.ldu_factor.calls",
    "supermatrix.ldu_factor.self_s",
    "supermatrix.even_det.calls",
    "supermatrix.even_det.self_s",
    "supermatrix.even_matrix_inverse.self_s",
    "supermatrix.from_json.self_s",
    "grassmann.mul.calls",
    "grassmann.mul.self_s",
    "grassmann.inverse.calls",
    "grassmann.inverse.self_s",
    "tableaux.dimension_table.self_s",
    "tableaux.enumerate_ssyt.calls",
    "tableaux.enumerate_ssyt.self_s",
]


class Tracer:
    def __init__(self):
        self.names = [layer[0] for layer in LAYERS]
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = {f"{layer[0]}.{layer[3]}": 0 for layer in LAYERS if layer[3]}
        self._stack = [-1]

    def _wrap(self, layer_id: int, fn, count_fn):
        _, _, _, count_name, _ = LAYERS[layer_id]
        key = f"{self.names[layer_id]}.{count_name}"
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack, extra, clock = self._stack, self.extra, time.perf_counter

        def traced(*args, **kwargs):
            span = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                start[span] = t0
                stack.pop()
            if count_fn is not None:
                extra[key] += count_fn(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer, rebinding module-level functions wherever a
        superschur module imported them by name."""
        modules = [m for n, m in sys.modules.items() if n.startswith("superschur")]
        for layer_id, (_, owner, attr, _, count_fn) in enumerate(LAYERS):
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = self._wrap(layer_id, getattr(owner, attr), count_fn)
                    setattr(owner, attr, staticmethod(wrapped))
                else:
                    setattr(owner, attr, self._wrap(layer_id, raw, count_fn))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer_id, original, count_fn)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

    def layer_metrics(self, passes: int) -> dict:
        """The REPORTED metrics per pass, as {name: (value, unit)}."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        children = [0.0] * len(self.names)
        for layer, parent, t0, t1 in zip(self.layer, self.parent, self.start, self.end):
            calls[layer] += 1
            total[layer] += t1 - t0
            if parent >= 0:
                children[self.layer[parent]] += t1 - t0
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[i] // passes, "count")
            out[f"{name}.self_s"] = ((total[i] - children[i]) / passes, "s")
        for key, value in self.extra.items():
            out[key] = (value // passes, "count")
        grew, calls_add = out["commutant.rowspace_add.grew"][0], out["commutant.rowspace_add.calls"][0]
        out["commutant.rowspace_add.useful_ratio"] = (grew / calls_add if calls_add else 0.0, "ratio")
        return {name: out[name] for name in REPORTED}

    def write(self, path) -> None:
        """All spans as tab-separated lines: layer, parent span, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tlayer\tparent\tstart\tend\n")
            for i, (layer, parent, t0, t1) in enumerate(
                zip(self.layer, self.parent, self.start, self.end)
            ):
                fh.write(f"{i}\t{self.names[layer]}\t{parent}\t{t0!r}\t{t1!r}\n")

