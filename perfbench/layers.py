"""Which ellop functions the traced run wraps, and the per-layer metrics.

Every span name is "<layer>.<stage>", where the layer is the ellop module
the function lives in.  Functions that are missing from the program (for
example a private helper a later change removes) are skipped and listed, and
their metrics read 0.
"""

from __future__ import annotations

import importlib

from tracer import resolve


def _terms(p) -> int:
    return len(getattr(p, "terms", ()))


def _term_products(tr, args, kwargs, result):
    a, b = args
    tr.counters["poly.term_products"] += _terms(a) * (_terms(b) if hasattr(b, "terms") else 1)


def _obstruction_terms(tr, args, kwargs, result):
    tr.counters["monodromy.obstruction_terms"] += sum(_terms(p) for _, p in result.obstructions)


def _constraint_sizes(tr, args, kwargs, result):
    tr.distinct["locus3.constraints"].add((result.q, result.r))
    tr.counters["locus3.condition_terms"] += sum(_terms(c.poly) for c in result.conditions)


def _branch_count(tr, args, kwargs, result):
    tr.counters["locus3.branches"] += len(result)


def _count_coeff_evals(tr, args, kwargs):
    """Count right-hand-side coefficient evaluations of one loop transport."""
    evaluator = args[0]

    def counted(z):
        tr.counters["oracle.coeff_evals"] += 1
        return evaluator(z)

    return (counted,) + tuple(args[1:]), kwargs


def _newton_iterations(tr, args, kwargs, result):
    tr.counters["cm.newton_iterations"] += result.iterations


# (span name, module, attribute, after-hook, before-hook)
HOOKS = (
    ("poly.mul", "ellop.poly", "MultiPoly.__mul__", _term_products, None),
    ("poly.add", "ellop.poly", "MultiPoly.__add__", None, None),
    ("poly.substitute", "ellop.poly", "MultiPoly.substitute", None, None),
    ("poly.substitute", "ellop.poly", "RatFunc.substitute", None, None),
    ("poly.ratfunc", "ellop.poly", "RatFunc.__init__", None, None),
    ("poly.ratfunc", "ellop.poly", "RatFunc.__add__", None, None),
    ("poly.ratfunc", "ellop.poly", "RatFunc.__mul__", None, None),
    ("poly.ratfunc", "ellop.poly", "RatFunc.__truediv__", None, None),
    ("poly.ratfunc", "ellop.poly", "RatFunc.__pow__", None, None),
    ("monodromy.frobenius", "ellop.monodromy", "frobenius_solve", _obstruction_terms, None),
    ("monodromy.split", "ellop.monodromy", "_split_coefficients", None, None),
    ("operators.localize", "ellop.operators", "GlobalEllipticOperator.localize", None, None),
    ("operators.find_commuting", "ellop.operators", "find_commuting", None, None),
    ("locus3.constraints", "ellop.locus3", "constraints_for", _constraint_sizes, None),
    ("locus3.solve", "ellop.locus3", "triangular_solve", _branch_count, None),
    ("locus3.reconstruct", "ellop.locus3", "reconstruct_in_q", None, None),
    ("locus3.scan", "ellop.locus3", "scan_grid", None, None),
    ("interp.interpolate", "ellop.interp", "rational_interpolate", None, None),
    ("linalg.solve", "ellop.linalg", "solve_linear_over_field", None, None),
    ("lattice.make_lattice", "ellop.lattice", "make_lattice", None, None),
    ("lattice.wp", "ellop.lattice", "wp_eval", None, None),
    ("lattice.theta", "ellop.lattice", "_wp01_theta", None, None),
    ("lattice.series", "ellop.lattice", "_wp01_series", None, None),
    ("oracle.evaluator_build", "ellop.oracle", "elliptic_evaluator", None, None),
    ("oracle.transport", "ellop.oracle", "monodromy_matrix", None, _count_coeff_evals),
    ("cm.residual", "ellop.cm", "cm3_residuals", None, None),
    ("cm.residual", "ellop.cm", "finite_gap_residuals", None, None),
    ("cm.residual", "ellop.cm", "cryst3_residuals", None, None),
    ("cm.residual", "ellop.cm", "cryst3_grad_H", None, None),
    ("cm.residual", "ellop.cm", "inozemtsev_gradient", None, None),
    ("cm.newton", "ellop.cm", "newton_critical", _newton_iterations, None),
)

LAYERS = ("poly", "monodromy", "operators", "locus3", "interp", "linalg",
          "lattice", "oracle", "cm", "acceptance")

#: acceptance.CRITERIA names, in order; each gets an "acceptance.<name>" span
CRITERIA = (
    "closed-form-loci", "j-invariants", "rational-reconstruction",
    "high-r-scan", "leading-condition", "engine-equivalences",
    "commuting-certificate", "numerical-monodromy", "many-body-cross-checks",
    "symmetric-third-order", "elliptic-numerics",
)

#: every per-layer metric and its unit, in report order
METRICS = {
    "poly.mul_calls": "count",
    "poly.mul_s": "s",
    "poly.term_products": "count",
    "poly.term_products_per_s": "1/s",
    "poly.add_calls": "count",
    "poly.add_s": "s",
    "poly.substitute_s": "s",
    "poly.ratfunc_s": "s",
    "monodromy.frobenius_calls": "count",
    "monodromy.frobenius_s": "s",
    "monodromy.split_s": "s",
    "monodromy.obstruction_terms": "count",
    "operators.localize_s": "s",
    "operators.find_commuting_s": "s",
    "locus3.constraints_calls": "count",
    "locus3.constraints_distinct": "count",
    "locus3.constraints_s": "s",
    "locus3.condition_terms": "count",
    "locus3.solve_calls": "count",
    "locus3.solve_s": "s",
    "locus3.branches": "count",
    "locus3.reconstruct_s": "s",
    "locus3.scan_s": "s",
    "interp.calls": "count",
    "interp.failed": "count",
    "interp.s": "s",
    "linalg.solve_s": "s",
    "lattice.make_lattice_s": "s",
    "lattice.wp_calls": "count",
    "lattice.wp_s": "s",
    "lattice.wp_us_per_call": "us",
    "lattice.theta_calls": "count",
    "lattice.series_calls": "count",
    "oracle.evaluator_build_s": "s",
    "oracle.transport_calls": "count",
    "oracle.transport_s": "s",
    "oracle.coeff_evals": "count",
    "oracle.coeff_evals_per_lambda": "count",
    "cm.residual_calls": "count",
    "cm.residual_s": "s",
    "cm.newton_calls": "count",
    "cm.newton_iterations": "count",
    "cm.newton_s": "s",
    **{f"acceptance.{name}_s": "s" for name in CRITERIA},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.coverage_frac": "frac",
    "trace.overhead_frac": "frac",
}


def install(tracer, bindings):
    """Wrap every hooked function; returns the hooks that found no target."""
    missing = []
    for name, module_name, attr, after, before in HOOKS:
        fn = resolve(importlib.import_module(module_name), attr)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        bindings.replace(fn, tracer.wrap(name, fn, after=after, before=before))
    acceptance = importlib.import_module("ellop.acceptance")
    for name, fn in list(getattr(acceptance, "CRITERIA", ())):
        bindings.replace(fn, tracer.wrap(f"acceptance.{name}", fn))
    return missing


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer, wall_s: float) -> dict:
    """Every METRICS entry except trace.overhead_frac, which needs an
    untraced pass and is added by the caller."""
    stats = tracer.summary()
    count = tracer.counters

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    m = {
        "poly.mul_calls": calls("poly.mul"),
        "poly.mul_s": secs("poly.mul"),
        "poly.term_products": count["poly.term_products"],
        "poly.term_products_per_s": _ratio(count["poly.term_products"], secs("poly.mul")),
        "poly.add_calls": calls("poly.add"),
        "poly.add_s": secs("poly.add"),
        "poly.substitute_s": secs("poly.substitute"),
        "poly.ratfunc_s": secs("poly.ratfunc"),
        "monodromy.frobenius_calls": calls("monodromy.frobenius"),
        "monodromy.frobenius_s": secs("monodromy.frobenius"),
        "monodromy.split_s": secs("monodromy.split"),
        "monodromy.obstruction_terms": count["monodromy.obstruction_terms"],
        "operators.localize_s": secs("operators.localize"),
        "operators.find_commuting_s": secs("operators.find_commuting"),
        "locus3.constraints_calls": calls("locus3.constraints"),
        "locus3.constraints_distinct": len(tracer.distinct["locus3.constraints"]),
        "locus3.constraints_s": secs("locus3.constraints"),
        "locus3.condition_terms": count["locus3.condition_terms"],
        "locus3.solve_calls": calls("locus3.solve"),
        "locus3.solve_s": secs("locus3.solve"),
        "locus3.branches": count["locus3.branches"],
        "locus3.reconstruct_s": secs("locus3.reconstruct"),
        "locus3.scan_s": secs("locus3.scan"),
        "interp.calls": calls("interp.interpolate"),
        "interp.failed": count["interp.interpolate.errors"],
        "interp.s": secs("interp.interpolate"),
        "linalg.solve_s": secs("linalg.solve"),
        "lattice.make_lattice_s": secs("lattice.make_lattice"),
        "lattice.wp_calls": calls("lattice.wp"),
        "lattice.wp_s": secs("lattice.wp"),
        "lattice.wp_us_per_call": 1e6 * _ratio(secs("lattice.wp"), calls("lattice.wp")),
        "lattice.theta_calls": calls("lattice.theta"),
        "lattice.series_calls": calls("lattice.series"),
        "oracle.evaluator_build_s": secs("oracle.evaluator_build"),
        "oracle.transport_calls": calls("oracle.transport"),
        "oracle.transport_s": secs("oracle.transport"),
        "oracle.coeff_evals": count["oracle.coeff_evals"],
        "oracle.coeff_evals_per_lambda": _ratio(count["oracle.coeff_evals"],
                                                calls("oracle.transport")),
        "cm.residual_calls": calls("cm.residual"),
        "cm.residual_s": secs("cm.residual"),
        "cm.newton_calls": calls("cm.newton"),
        "cm.newton_iterations": count["cm.newton_iterations"],
        "cm.newton_s": secs("cm.newton"),
    }
    for name in CRITERIA:
        m[f"acceptance.{name}_s"] = secs(f"acceptance.{name}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v[2] for k, v in stats.items()
                                   if k.startswith(layer + "."))
    covered = tracer.top_level_seconds(lambda name: name.startswith("acceptance."))
    m["trace.coverage_frac"] = _ratio(covered, wall_s)
    return m
