"""Spans and counters around ringlower's layers, installed from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` rebinds
each layer's public functions to timing wrappers, at every module that
imported them by name (``from .oracle import sets_equal`` binds the
function in ``cli``, so wrapping ``oracle.sets_equal`` alone would miss
it), and rebinds the entries of ``passes._PASS_FUNCTIONS`` that
``compile_formula`` calls through.  Hot inner operations (polynomial
multiplication, ring ``add``/``mul``) get counters, never spans.
``uninstall`` restores every original binding.

A span is ``(name, start, end, parent, job)``; a layer is the part of the
name before the first dot.  A span's self time is its duration minus that
of its direct children.  Work counts are derived after each cycle from
the arguments and results the wrappers kept, so that no counting happens
inside a timed span.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

from ringlower import cli, formula, gadgets, oracle, parser, passes, poly, ring

LAYERS = ("cli", "parser", "formula", "poly", "ring", "passes", "oracle", "gadgets")
PASSES = ("eliminate_inequalities", "eliminate_disjunctions", "fold_to_single")

# Per-layer metrics: (name, unit, better).  Times are seconds per cycle
# (one pass over the workload's job list); counts are per cycle and
# deterministic.
PER_LAYER = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("parser.parse_formula.calls", "count", "lower"),
    ("parser.parse_formula.s", "s", "lower"),
    ("parser.format_formula.s", "s", "lower"),
    ("formula.classify.calls", "count", "lower"),
    ("gadgets.parse_gadget_config.s", "s", "lower"),
    ("gadgets.verify_gadget_set.s", "s", "lower"),
    ("gadgets.default_gadgets.s", "s", "lower"),
    ("gadgets.search_origin_gadget.calls", "count", "lower"),
    ("gadgets.search_origin_gadget.s", "s", "lower"),
    ("gadgets.search_origin_gadget.found_ratio", "ratio", "higher"),
    ("gadgets.search_space", "count", "lower"),
    ("gadgets.verify_origin_gadget.s", "s", "lower"),
    ("gadgets.verify_axes_gadget.s", "s", "lower"),
    ("gadgets.verify_nonzero_gadget.s", "s", "lower"),
    ("ring.add.calls", "count", "lower"),
    ("ring.mul.calls", "count", "lower"),
    ("passes.compile_formula.s", "s", "lower"),
    *[(f"passes.{p}.s", "s", "lower") for p in PASSES],
    *[
        (f"passes.{p}.{what}", unit, "lower")
        for p in PASSES
        for what, unit in (
            ("out_atoms", "atoms"),
            ("out_terms", "terms"),
            ("out_degree", "degree"),
            ("fresh_vars", "vars"),
        )
    ],
    ("poly.substitute.calls", "count", "lower"),
    ("poly.substitute.s", "s", "lower"),
    ("poly.mul.calls", "count", "lower"),
    ("poly.evaluate.calls", "count", "lower"),
    ("poly.evaluate.s", "s", "lower"),
    *[(f"oracle.verify.{p}.s", "s", "lower") for p in PASSES],
    ("oracle.definable_set.calls", "count", "lower"),
    ("oracle.definable_set.s", "s", "lower"),
    ("oracle.has_witness.calls", "count", "lower"),
    ("oracle.has_witness.s", "s", "lower"),
    ("oracle.param_points", "count", "lower"),
    ("oracle.search_bound", "count", "lower"),
    ("oracle.member_ratio", "ratio", "higher"),
    *[(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS],
    *[(f"layer.{layer}.self_share", "ratio", "lower") for layer in LAYERS],
    ("trace.overhead_frac", "ratio", "lower"),
]

# Per-cycle values that must repeat exactly from one traced cycle, or
# run, to the next.
DETERMINISTIC = [
    name
    for name, unit, _ in PER_LAYER
    if unit not in ("s", "ratio")
] + ["gadgets.search_origin_gadget.found_ratio", "oracle.member_ratio"]


# Work counts derived from the kept arguments and results.
COUNTED = {"gadgets.search_space", "oracle.search_bound"} | {
    f"passes.{p}.{what}" for p in PASSES
    for what in ("out_atoms", "out_terms", "out_degree", "fresh_vars")
}


def _domain_sizes(rng, param_box, witness_box, factor):
    if isinstance(rng, ring.ZBox):
        pb = rng.bound if param_box is None else param_box
        wb = factor * pb if witness_box is None else witness_box
        return 2 * pb + 1, 2 * wb + 1
    return rng.size, rng.size


def _terms(f) -> int:
    return sum(len(a.poly.terms) for a in formula.atoms(f.body))


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.records: list = []
        self.stages: list[str] = []
        self._saved: list = []
        self._cycle_start = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            label = name() if callable(name) else name
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.job)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _keep(self, kind):
        return lambda args, kwargs, result: self.records.append((kind, args, kwargs, result))

    def _compiled(self, args, kwargs, result) -> None:
        # cli verifies the stages in the order compile_formula ran them.
        self.stages = [t.name for t in result.traces]

    def _verify_name(self) -> str:
        stage = self.stages.pop(0) if self.stages else "other"
        return f"oracle.verify.{stage}"

    def _bindings(self):
        """(owner, attribute, replacement) for every binding to rebind."""
        out = [(cli, "main", self._span("cli.main", cli.main))]
        for module in (cli, gadgets):
            for fn in ("parse_formula", "format_formula"):
                out.append((module, fn, self._span(f"parser.{fn}", getattr(parser, fn))))
        out.append(
            (gadgets, "parse_polynomial",
             self._span("parser.parse_polynomial", parser.parse_polynomial))
        )
        for module in (cli, passes, gadgets):
            out.append((module, "classify", self._span("formula.classify", formula.classify)))
        for fn in ("max_degree", "all_variables"):
            out.append((passes, fn, self._span(f"formula.{fn}", getattr(formula, fn))))
        out.append((cli, "parse_ring", self._span("ring.parse_ring", ring.parse_ring)))
        for cls in (ring.ZMod, ring.ProductRing, ring.ZBox):
            for op in ("add", "mul"):
                out.append((cls, op, self._counter(f"ring.{op}.calls", cls.__dict__[op])))
        mul = self._counter("poly.mul.calls", poly.Polynomial.__mul__)
        out += [
            (poly.Polynomial, "__mul__", mul),
            (poly.Polynomial, "__rmul__", mul),
            (poly.Polynomial, "substitute",
             self._span("poly.substitute", poly.Polynomial.substitute)),
            (poly.Polynomial, "evaluate",
             self._span("poly.evaluate", poly.Polynomial.evaluate)),
        ]
        out.append(
            (cli, "compile_formula",
             self._span("passes.compile_formula", passes.compile_formula, self._compiled))
        )
        for name in PASSES:
            out.append(
                (passes._PASS_FUNCTIONS, name,
                 self._span(f"passes.{name}", passes._PASS_FUNCTIONS[name], self._keep(name)))
            )
        out.append((passes, "encode_union", self._span("passes.encode_union", passes.encode_union)))
        out.append((cli, "sets_equal", self._span(self._verify_name, oracle.sets_equal)))
        definable = self._span("oracle.definable_set", oracle.definable_set, self._keep("definable_set"))
        for module in (oracle, cli, gadgets):
            out.append((module, "definable_set", definable))
        out.append(
            (oracle, "has_witness",
             self._span("oracle.has_witness", oracle.has_witness, self._keep("has_witness")))
        )
        for fn in ("default_gadgets", "parse_gadget_config", "verify_gadget_set",
                   "render_gadget_config"):
            out.append((cli, fn, self._span(f"gadgets.{fn}", getattr(gadgets, fn))))
        out.append(
            (gadgets, "search_origin_gadget",
             self._span("gadgets.search_origin_gadget", gadgets.search_origin_gadget,
                        self._keep("search")))
        )
        for fn in ("verify_origin_gadget", "verify_axes_gadget", "verify_nonzero_gadget"):
            out.append((gadgets, fn, self._span(f"gadgets.{fn}", getattr(gadgets, fn))))
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, replacement in self._bindings():
            if isinstance(owner, dict):
                self._saved.append((owner, attr, owner[attr]))
                owner[attr] = replacement
            else:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved = []

    # -- per-cycle summaries -----------------------------------------------------

    def begin_cycle(self) -> None:
        self._cycle_start = len(self.spans)
        self.counts.clear()
        self.records = []
        self.stages = []

    def end_cycle(self) -> dict:
        """Per-layer values for the cycle since ``begin_cycle``."""
        spans = self.spans[self._cycle_start :]
        offset = self._cycle_start
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        calls: Counter = Counter()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        job_time = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            own = duration - child_time.get(offset + i, 0.0)
            total[name] += duration
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += own
            if name == "cli.main":
                total["cli.main.self"] += own
            if parent < 0:
                job_time += duration

        out: dict = {
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": total["cli.main.self"],
            "parser.parse_formula.calls": calls["parser.parse_formula"],
            "formula.classify.calls": calls["formula.classify"],
            "gadgets.search_origin_gadget.calls": calls["gadgets.search_origin_gadget"],
            "poly.substitute.calls": calls["poly.substitute"],
            "poly.evaluate.calls": calls["poly.evaluate"],
            "oracle.definable_set.calls": calls["oracle.definable_set"],
            "oracle.has_witness.calls": calls["oracle.has_witness"],
            "ring.add.calls": self.counts["ring.add.calls"],
            "ring.mul.calls": self.counts["ring.mul.calls"],
            "poly.mul.calls": self.counts["poly.mul.calls"],
        }
        for name in (
            "parser.parse_formula", "parser.format_formula",
            "gadgets.parse_gadget_config", "gadgets.verify_gadget_set",
            "gadgets.default_gadgets", "gadgets.search_origin_gadget",
            "gadgets.verify_origin_gadget", "gadgets.verify_axes_gadget",
            "gadgets.verify_nonzero_gadget", "passes.compile_formula",
            "poly.substitute", "poly.evaluate",
            "oracle.definable_set", "oracle.has_witness",
            *[f"passes.{p}" for p in PASSES],
            *[f"oracle.verify.{p}" for p in PASSES],
        ):
            out[f"{name}.s"] = total[name]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_self[layer]
            out[f"layer.{layer}.self_share"] = layer_self[layer] / job_time if job_time else 0.0
        out.update(self._work_counts())
        out["job_time_s"] = job_time
        return out

    def _work_counts(self) -> dict:
        out: Counter = Counter()
        searches = found = points = members = 0
        for kind, args, kwargs, result in self.records:
            if kind == "search":
                degree = args[1] if len(args) > 1 else kwargs["max_degree"]
                monomials = (degree + 1) * (degree + 2) // 2 - 1
                out["gadgets.search_space"] += args[0].characteristic() ** monomials
                searches += 1
                found += result is not None
            elif kind in PASSES:
                f, trace = result
                out[f"passes.{kind}.out_atoms"] += sum(1 for _ in formula.atoms(f.body))
                out[f"passes.{kind}.out_terms"] += _terms(f)
                out[f"passes.{kind}.out_degree"] += formula.max_degree(f)
                out[f"passes.{kind}.fresh_vars"] += trace.fresh_variables
            else:
                f, rng = args[0], args[2 if kind == "has_witness" else 1]
                factor = kwargs.get("witness_factor", oracle.DEFAULT_WITNESS_FACTOR)
                if kind == "definable_set":
                    p_size, w_size = _domain_sizes(
                        rng, kwargs.get("param_box"), kwargs.get("witness_box"), factor
                    )
                    here = p_size ** len(f.params)
                    members += len(result)
                else:
                    _, w_size = _domain_sizes(rng, None, kwargs.get("witness_box"), factor)
                    here = 1
                    members += bool(result)
                points += here
                out["oracle.search_bound"] += here * w_size ** len(f.bound) * _terms(f)
        counts = {name: out[name] for name in COUNTED}
        counts["gadgets.search_origin_gadget.found_ratio"] = found / searches if searches else 0.0
        counts["oracle.param_points"] = points
        counts["oracle.member_ratio"] = members / points if points else 0.0
        return counts


def self_shares(spans: list, group) -> dict:
    """{group: {layer: self time / job time}} over ``spans``; ``group``
    maps a job index to the name of its group of jobs."""
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own: dict = defaultdict(lambda: dict.fromkeys(LAYERS, 0.0))
    job_time: Counter = Counter()
    for i, (name, start, end, parent, job) in enumerate(spans):
        key = group(job)
        own[key][name.split(".", 1)[0]] += end - start - child_time[i]
        if parent < 0:
            job_time[key] += end - start
    return {key: {layer: t / job_time[key] for layer, t in layers.items()}
            for key, layers in own.items() if job_time[key]}


def combine(cycles: list[dict], overhead: float) -> dict:
    """One value per per-layer metric: counts from the first traced cycle
    (the later ones must repeat them), times as the median over cycles."""
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_frac":
            out[name] = overhead
        elif name in DETERMINISTIC:
            out[name] = cycles[0][name]
        else:
            out[name] = statistics.median(c[name] for c in cycles)
    return out


def counters_repeat(cycles: list[dict]) -> bool:
    return all(c[name] == cycles[0][name] for c in cycles for name in DETERMINISTIC)
