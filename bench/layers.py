"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces public functions and methods of the ``causalcoh``
modules with wrappers.  A module-level function is replaced in its defining
module and in every ``causalcoh`` module that imported it by name, so calls
through either binding are seen.  Spans nest on one stack; the time a span
reports is its self time (its duration minus the durations of the spans it
encloses).  Wrappers pass straight through while the tracer is inactive, so
only the timed jobs are measured, never the output checks.  Helpers that
no metric names (``trace``, ``odot``, ``kernel_basis``, ...) get spans of
their own whose self time goes to unreported ``*.other_s`` buckets, so that
it does not count as self time of the reported span that called them.

Every metric is a total over the jobs run while the tracer was active.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

# Input ranks of ``nabla`` and ``box_tensor`` reported by name: every rank
# the Calabi battery calls them at.  ``box_tensor`` sees the Calabi fields at
# levels 0..4 (ranks 1, 2, 4, 5, 6); ``nabla`` sees those and also rank 3,
# the covariant derivative of a level-1 field (``nabla(nabla(h))`` in the
# level-1 differential, and the level-3 homotopy).  Calls at other ranks go
# to the unreported ``tensors.other_s`` bucket.
TENSOR_RANKS = {"nabla": (1, 2, 3, 4, 5, 6), "box_tensor": (1, 2, 4, 5, 6)}
RANDOM_FIELD_LEVELS = (0, 1, 2, 3, 4)
DIFF_LEVELS = (0, 1, 2, 3)
HOMOTOPY_LEVELS = (1, 2, 3, 4)
WAVE_LEVELS = (0, 1, 2, 3, 4)


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = ["polynomials.s", "polynomials.rf_normalise", "polynomials.rf_eq_cross",
             "polynomials.mp_mul", "polynomials.mp_mul_term_pairs"]
    for op, ranks in TENSOR_RANKS.items():
        for r in ranks:
            names += [f"tensors.{op}.r{r}_s", f"tensors.{op}.r{r}_calls"]
    names.append("tensors.comps_out")
    names += ["young.project_s", "young.project_calls",
              "young.symmetrize_s", "young.symmetrize_calls"]
    names += [f"calabi.random_field.l{l}_s" for l in RANDOM_FIELD_LEVELS]
    names += [f"calabi.diff.l{l}_s" for l in DIFF_LEVELS]
    names += [f"calabi.homotopy.l{l}_s" for l in HOMOTOPY_LEVELS]
    names += [f"calabi.wave.l{l}_s" for l in WAVE_LEVELS]
    names.append("calabi.killing_solve_s")
    names += ["linalg.rank_s", "linalg.rank_calls", "linalg.rref_s", "linalg.rref_calls",
              "linalg.matmul_s", "linalg.cells", "linalg.max_cells"]
    names += ["complexes.cohomology_s", "complexes.cohomology_calls",
              "complexes.cohomology_distinct", "complexes.cohomology_reuse",
              "complexes.les_s", "complexes.exactness_s", "complexes.contractibility_s"]
    names += ["simplicial.build_s", "simplicial.coboundary_s", "simplicial.betti_s",
              "simplicial.faces"]
    names.append("cli.s")
    return names


class Tracer:
    """Span stack, self-time totals and counters for one process."""

    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._cohomology_seen: dict[tuple[int, int], object] = {}

    # -- wrapping ---------------------------------------------------------

    def _span(self, fn, label, after=None):
        """Wrap ``fn``: ``label(args, kwargs)`` names the bucket its self
        time goes to, ``after(args, kwargs, result)`` updates counters."""
        tracer = self
        stack = self._stack
        seconds = self.seconds

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                seconds[label(args, kwargs)] += dur - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def wrap_function(self, module, name, label, after=None):
        original = getattr(module, name)
        wrapper = self._span(original, label, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "causalcoh" or mod_name.startswith("causalcoh.")):
                continue
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)

    def wrap_method(self, cls, name, label, after=None):
        setattr(cls, name, self._span(getattr(cls, name), label, after))

    def count(self, key, amount=1):
        self.counts[key] += amount

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced entry point of the loaded ``causalcoh`` modules."""
        from causalcoh import (calabi, cli, complexes, linalg, polynomials, simplicial,
                               tensors, young)

        fixed = lambda key: (lambda args, kwargs: key)
        count = self.count

        # polynomials: the scalar ring's arithmetic entry points
        rf = polynomials.RationalFunction
        mp = polynomials.MultiPolynomial

        def rf_init_after(args, kwargs, _result):
            normalized = kwargs.get("_normalized", args[3] if len(args) > 3 else False)
            if not normalized and args[1].terms:
                count("polynomials.rf_normalise")

        def rf_eq_after(args, kwargs, _result):
            a, b = args[0], args[1]
            if isinstance(b, rf):
                if a.den.terms != b.den.terms:
                    count("polynomials.rf_eq_cross")
            elif not a.den_is_one():
                count("polynomials.rf_eq_cross")

        def mp_mul_after(args, kwargs, _result):
            count("polynomials.mp_mul")
            count("polynomials.mp_mul_term_pairs", len(args[0].terms) * len(args[1].terms))

        self.wrap_method(rf, "__init__", fixed("polynomials.s"), rf_init_after)
        self.wrap_method(rf, "__eq__", fixed("polynomials.s"), rf_eq_after)
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "scale",
                     "derivative"):
            self.wrap_method(rf, name, fixed("polynomials.s"))
        self.wrap_method(mp, "__mul__", fixed("polynomials.s"), mp_mul_after)

        # tensors
        def comps_out(args, kwargs, result):
            count("tensors.comps_out", len(result.comps))

        def by_rank(op):
            def label(args, kwargs):
                r = args[0].rank
                return f"tensors.{op}.r{r}_s" if r in TENSOR_RANKS[op] else "tensors.other_s"
            return label

        def rank_calls(op):
            def after(args, kwargs, result):
                r = args[0].rank
                if r in TENSOR_RANKS[op]:
                    count(f"tensors.{op}.r{r}_calls")
                comps_out(args, kwargs, result)
            return after

        self.wrap_function(tensors, "nabla", by_rank("nabla"), rank_calls("nabla"))
        self.wrap_function(tensors, "box_tensor", by_rank("box_tensor"),
                           rank_calls("box_tensor"))
        for name in ("trace", "odot", "project", "trace_pair"):
            self.wrap_function(tensors, name, fixed("tensors.other_s"), comps_out)

        # young
        self.wrap_function(young, "project_components", fixed("young.project_s"),
                           lambda a, k, r: count("young.project_calls"))
        self.wrap_function(young, "symmetrize_slots", fixed("young.symmetrize_s"),
                           lambda a, k, r: count("young.symmetrize_calls"))

        # calabi: per-level operator spans
        def level_of_field(prefix):
            return lambda args, kwargs: f"calabi.{prefix}.l{args[0].level}_s"

        def random_field_level(args, kwargs):
            level = args[1] if len(args) > 1 else kwargs["level"]
            return f"calabi.random_field.l{level}_s"

        self.wrap_function(calabi, "random_calabi_field", random_field_level)
        self.wrap_function(calabi, "calabi_diff", level_of_field("diff"))
        self.wrap_function(calabi, "calabi_homotopy", level_of_field("homotopy"))
        self.wrap_function(calabi, "calabi_wave", level_of_field("wave"))
        self.wrap_function(calabi, "polynomial_solution_dimension",
                           fixed("calabi.killing_solve_s"))
        for name in ("verify_calabi_identities", "linearized_riemann", "killing_yano_operator"):
            self.wrap_function(calabi, name, fixed("calabi.other_s"))

        # linalg
        def elimination(key):
            def after(args, kwargs, result):
                m = args[0]
                cells = m.rows * m.cols
                count(f"linalg.{key}_calls")
                count("linalg.cells", cells)
                if cells > self.counts["linalg.max_cells"]:
                    self.counts["linalg.max_cells"] = cells
            return after

        matrix = linalg.MatrixQ
        self.wrap_method(matrix, "rank", fixed("linalg.rank_s"), elimination("rank"))
        self.wrap_method(matrix, "rref", fixed("linalg.rref_s"), elimination("rref"))
        self.wrap_method(matrix, "__mul__", fixed("linalg.matmul_s"))
        for name in ("kernel_basis", "solve", "inverse", "hstack", "transpose"):
            self.wrap_method(matrix, name, fixed("linalg.other_s"))

        # complexes
        def cohomology_after(args, kwargs, result):
            c, p = args[0], args[1]
            count("complexes.cohomology_calls")
            key = (id(c), p)
            if key not in self._cohomology_seen:
                self._cohomology_seen[key] = c  # keeps the id from being reused
                count("complexes.cohomology_distinct")

        self.wrap_function(complexes, "cohomology", fixed("complexes.cohomology_s"),
                           cohomology_after)
        self.wrap_function(complexes, "long_exact_sequence", fixed("complexes.les_s"))
        self.wrap_function(complexes, "check_exactness", fixed("complexes.exactness_s"))
        self.wrap_function(complexes, "contractibility_check",
                           fixed("complexes.contractibility_s"))

        # simplicial
        self.wrap_function(simplicial, "build_complex", fixed("simplicial.build_s"),
                           lambda a, k, r: count("simplicial.faces", sum(r.f_vector())))
        self.wrap_function(simplicial, "coboundary", fixed("simplicial.coboundary_s"))
        self.wrap_function(simplicial, "betti", fixed("simplicial.betti_s"))

        # cli: argument parsing, report building and emission, causal tables
        self.wrap_function(cli, "main", fixed("cli.s"))

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every name of ``metric_names()``; a layer the jobs never reached
        reads 0."""
        out = {}
        for name in metric_names():
            if name.endswith(("_s", ".s")):
                out[name] = self.seconds.get(name, 0.0)
            elif name == "complexes.cohomology_reuse":
                distinct = self.counts.get("complexes.cohomology_distinct", 0)
                calls = self.counts.get("complexes.cohomology_calls", 0)
                out[name] = calls / distinct if distinct else 0.0
            else:
                out[name] = self.counts.get(name, 0)
        return out
