"""Spans around the calls into vbpg's layers, and the per-layer figures
computed from them.

``install`` wraps vbpg's functions and methods at run time, from the
benchmark's side; vbpg's source is not touched.  A span has a name, a
start, an end and a parent; spans are kept in flat arrays in memory and
written out once, when the run ends.  A layer's self time is its spans'
time minus the time their child spans cover.

The analysis half (``layer_metrics``) needs only numpy, so the checker can
read a span file without importing vbpg.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("core", "problems", "bregman", "solver", "diagnostics", "checks",
          "cli")
ROOT_SPAN = "bench.round"

# The 11 invariant-suite functions, reported as checks.<name>_s.
SUITE_CHECKS = ("gradient_lipschitz", "kernel_bounds", "gap_identity",
                "descent", "envelope_decrease", "residual_bound",
                "prox_vs_grid", "semiconvex_midpoint", "level_boundedness",
                "solver_run", "semiconvex_suite")

# calls counted per solver iteration: gradients, f values (one per F
# evaluation plus the envelope's), g values
PER_ITER_CALLS = ("problems.grad", "problems.f_value", "problems.g_value")

# cli functions whose time is argument and config parsing
PARSE_SPANS = ("cli.build_parser", "cli.parse_args",
               "cli.problem_spec_from_config", "cli.solver_config_from_config",
               "cli.kernel_from_config", "cli.resolve_x0", "cli._probe_params")


class Recorder:
    """In-memory span store: one entry per call, about 24 bytes each."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.calls[nid] += 1
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> float:
        t = perf_counter()
        self.end[i] = t
        self._stack.pop()
        return t - self.start[i]

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span.  ``before()`` runs ahead of the call and
        its result goes to ``after(args, kwargs, result, seconds, state)``."""
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish
        if before is None and after is None:
            def traced(*args, **kwargs):
                i = begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(i)
        else:
            def traced(*args, **kwargs):
                state = before() if before is not None else None
                i = begin(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    seconds = finish(i)
                if after is not None:
                    after(args, kwargs, out, seconds, state)
                return out
        traced.span_name = name
        return functools.update_wrapper(traced, fn)

    def save(self, path) -> None:
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 names=np.array(self.names))


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def install(rec: Recorder, package) -> None:
    """Wrap every public function of each vbpg module, plus the methods and
    private helpers the per-layer figures need, in every namespace that
    binds them."""
    mods = {layer: getattr(package, layer) for layer in LAYERS}
    namespaces = [package] + list(mods.values())
    counters = rec.counters

    def rebind(original, wrapped):
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)

    def calls_of(*names):
        ids = [rec.name_id(n) for n in names]
        return lambda: [rec.calls[i] for i in ids]

    def run_done(args, kwargs, trace, seconds, before):
        problem, config = _arg(args, kwargs, 0, "problem"), _arg(args, kwargs, 1, "config")
        after = calls_of(*PER_ITER_CALLS)()
        counters["solver.iterations"] += trace.n_iters
        for key, b, a in zip(("grad", "F", "g_value"), before, after):
            counters[f"solver.{key}_in_runs"] += a - b
        if problem.dim == 500:
            counters["solver.d500_s"] += seconds
            counters["solver.d500_iters"] += trace.n_iters
        if any(K.diag_weights(problem.dim) is None for K in config.kernels):
            counters["solver.quad_s"] += seconds
            counters["solver.quad_iters"] += trace.n_iters

    def prox_done(args, kwargs, res, seconds, _):
        counters["bregman.prox_inner_iters"] += res.inner_iterations
        path = "sep" if res.inner_iterations == 0 else "quad"
        counters[f"bregman.prox_{path}_s"] += seconds

    def slice_done(args, kwargs, samples, seconds, before):
        counters["diagnostics.samples"] += len(samples)
        counters["diagnostics.draws"] += counters["core.F_batch_rows"] - before

    def crit_done(args, kwargs, found, seconds, before):
        counters["diagnostics.crit_runs"] += calls_of("solver.vbpg_run")()[0] - before[0]
        counters["diagnostics.crit_found"] += len(found)

    def add(key, value):
        counters[key] += value

    def parser_done(args, kwargs, parser, seconds, _):
        parser.parse_args = rec.wrap("cli.parse_args", parser.parse_args)

    hooks = {
        "solver.vbpg_run": dict(before=calls_of(*PER_ITER_CALLS),
                                after=run_done),
        "bregman.prox_map": dict(after=prox_done),
        "diagnostics.probe_slice": dict(
            before=lambda: counters["core.F_batch_rows"], after=slice_done),
        "diagnostics.critical_points": dict(before=calls_of("solver.vbpg_run"),
                                            after=crit_done),
        "checks.run_invariant_suite": dict(
            after=lambda a, k, out, s, _: add("checks.records", len(out))),
        "cli.build_parser": dict(after=parser_done),
        "cli._write_text": dict(
            after=lambda a, k, out, s, _: add("cli.bytes_written",
                                              len(_arg(a, k, 1, "text")))),
    }

    for layer, mod in mods.items():
        for key, fn in list(vars(mod).items()):
            public = not key.startswith("_") or key in ("_write_text",
                                                        "_probe_params")
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and public):
                name = f"{layer}.{key}"
                rebind(fn, rec.wrap(name, fn, **hooks.get(name, {})))
    # the suite iterates over its own list of check functions
    mods["checks"]._CHECKS[:] = [getattr(mods["checks"], f.__name__)
                                 for f in mods["checks"]._CHECKS]

    core, problems, dx = mods["core"], mods["problems"], mods["diagnostics"]
    core.Problem.F = rec.wrap("core.F", core.Problem.F)
    core.Problem.F_batch = rec.wrap(
        "core.F_batch", core.Problem.F_batch,
        after=lambda a, k, out, s, _: add("core.F_batch_rows", len(out)))
    regularizers = {c for c in vars(problems).values()
                    if inspect.isclass(c) and issubclass(c, core.Regularizer)}
    for cls in regularizers:
        for meth in ("value", "scaled_prox", "subdiff_dist"):
            if meth in vars(cls):
                label = "g_value" if meth == "value" else meth
                setattr(cls, meth, rec.wrap(f"problems.{label}",
                                            vars(cls)[meth]))
    dx.SublevelGrid.__init__ = rec.wrap(
        "diagnostics.SublevelGrid", dx.SublevelGrid.__init__,
        after=lambda a, k, out, s, _: add("diagnostics.grid_points",
                                          len(a[0].points)))
    dx.SublevelGrid.project = rec.wrap("diagnostics.project",
                                       dx.SublevelGrid.project)

    # f's value and gradient are closures stored on each SmoothObjective
    post_init = core.SmoothObjective.__post_init__

    def traced_post_init(self):
        post_init(self)
        for attr, name in (("value", "problems.f_value"), ("gradient", "problems.grad")):
            fn = getattr(self, attr)
            if not hasattr(fn, "span_name"):  # objectives rebuilt from a traced one
                object.__setattr__(self, attr, rec.wrap(name, fn))

    core.SmoothObjective.__post_init__ = traced_post_init


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


PER_LAYER = [
    ("core.F_calls", "count"), ("core.F_s", "s"),
    ("core.F_batch_rows", "count"), ("core.F_batch_s", "s"),
    ("core.as_vector_calls", "count"), ("core.as_vector_s", "s"),
    ("problems.g_value_calls", "count"), ("problems.g_value_s", "s"),
    ("problems.scaled_prox_calls", "count"), ("problems.scaled_prox_s", "s"),
    ("problems.grad_calls", "count"), ("problems.grad_s", "s"),
    ("problems.subdiff_dist_calls", "count"), ("problems.subdiff_dist_s", "s"),
    ("bregman.prox_calls", "count"), ("bregman.prox_sep_s", "s"),
    ("bregman.prox_quad_s", "s"), ("bregman.prox_inner_iters", "count"),
    ("bregman.envelope_gap_s", "s"), ("bregman.prox_subgradient_s", "s"),
    ("solver.runs", "count"), ("solver.iterations", "count"),
    ("solver.run_s", "s"), ("solver.self_s", "s"),
    ("solver.iter_us.d500", "us"), ("solver.iter_us.quad", "us"),
    ("solver.grad_per_iter", "ratio"), ("solver.F_per_iter", "ratio"),
    ("solver.g_value_per_iter", "ratio"),
    ("diagnostics.grid_builds", "count"), ("diagnostics.grid_points", "count"),
    ("diagnostics.grid_build_s", "s"), ("diagnostics.project_calls", "count"),
    ("diagnostics.project_s", "s"), ("diagnostics.probe_slice_s", "s"),
    ("diagnostics.samples", "count"), ("diagnostics.draws", "count"),
    ("diagnostics.accept_ratio", "ratio"),
    ("diagnostics.critical_points_s", "s"), ("diagnostics.crit_runs", "count"),
    ("diagnostics.crit_found", "count"), ("diagnostics.fit_calls", "count"),
    ("diagnostics.fit_s", "s"), ("diagnostics.level_set_rate_s", "s"),
    ("diagnostics.growth_s", "s"), ("diagnostics.checks_s", "s"),
    ("checks.records", "count"), ("checks.suite_s", "s"),
] + [(f"checks.{c}_s", "s") for c in SUITE_CHECKS] + [
    ("cli.parse_s", "s"), ("cli.write_s", "s"), ("cli.bytes_written", "bytes"),
] + [(f"share.{layer}", "share") for layer in LAYERS] + [
    ("share.root", "share"), ("trace.wall_s", "s"),
]


def layer_metrics(spans: dict, counters: dict, round_times: list) -> dict:
    """Per-round per-layer figures from a span file and the hook counters.

    Times are inclusive span time unless named ``self``; shares are self
    time over the time of the root spans, one per round."""
    names = [str(n) for n in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    n = name.size
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n) if n else np.zeros(0)
    self_t = dur - child
    k = len(names)
    ids = {nm: i for i, nm in enumerate(names)}
    # only spans inside a round count; set-up work is not a round's
    roots = np.flatnonzero(name == ids[ROOT_SPAN]) if ROOT_SPAN in ids else []
    r_start, r_end = spans["start"][roots], spans["end"][roots]
    j = np.searchsorted(r_start, spans["start"], side="right") - 1
    in_round = (j >= 0) & (spans["start"] <= r_end[np.maximum(j, 0)])
    calls = np.bincount(name[in_round], minlength=k)
    incl = np.bincount(name[in_round], weights=dur[in_round], minlength=k)
    own = np.bincount(name[in_round], weights=self_t[in_round], minlength=k)
    rounds = max(len(round_times), 1)

    def c(nm):
        return float(calls[ids[nm]]) if nm in ids else 0.0

    def t(nm):
        return float(incl[ids[nm]]) if nm in ids else 0.0

    def outer(group):
        """Time of spans in the group not nested in another of the group."""
        gid = [ids[g] for g in group if g in ids]
        if not gid:
            return 0.0
        in_group = np.isin(name, gid) & in_round
        parent_in = np.zeros(n, dtype=bool)
        parent_in[has_parent] = in_group[parent[has_parent]]
        return float(dur[in_group & ~parent_in].sum())

    cnt = defaultdict(float, counters)
    dx_checks = [nm for nm in names if nm.startswith("diagnostics.check_")]
    iters = cnt["solver.iterations"]
    m = {
        "core.F_calls": c("core.F"), "core.F_s": t("core.F"),
        "core.F_batch_rows": cnt["core.F_batch_rows"],
        "core.F_batch_s": t("core.F_batch"),
        "core.as_vector_calls": c("core.as_vector"),
        "core.as_vector_s": t("core.as_vector"),
        "problems.g_value_calls": c("problems.g_value"),
        "problems.g_value_s": t("problems.g_value"),
        "problems.scaled_prox_calls": c("problems.scaled_prox"),
        "problems.scaled_prox_s": t("problems.scaled_prox"),
        "problems.grad_calls": c("problems.grad"),
        "problems.grad_s": t("problems.grad"),
        "problems.subdiff_dist_calls": c("problems.subdiff_dist"),
        "problems.subdiff_dist_s": t("problems.subdiff_dist"),
        "bregman.prox_calls": c("bregman.prox_map"),
        "bregman.prox_sep_s": cnt["bregman.prox_sep_s"],
        "bregman.prox_quad_s": cnt["bregman.prox_quad_s"],
        "bregman.prox_inner_iters": cnt["bregman.prox_inner_iters"],
        "bregman.envelope_gap_s": t("bregman.envelope_gap"),
        "bregman.prox_subgradient_s": t("bregman.prox_subgradient"),
        "solver.runs": c("solver.vbpg_run"), "solver.iterations": iters,
        "solver.run_s": t("solver.vbpg_run"),
        "solver.self_s": float(own[ids["solver.vbpg_run"]])
        if "solver.vbpg_run" in ids else 0.0,
        "diagnostics.grid_builds": c("diagnostics.SublevelGrid"),
        "diagnostics.grid_points": cnt["diagnostics.grid_points"],
        "diagnostics.grid_build_s": t("diagnostics.SublevelGrid"),
        "diagnostics.project_calls": c("diagnostics.project"),
        "diagnostics.project_s": t("diagnostics.project"),
        "diagnostics.probe_slice_s": t("diagnostics.probe_slice"),
        "diagnostics.samples": cnt["diagnostics.samples"],
        "diagnostics.draws": cnt["diagnostics.draws"],
        "diagnostics.critical_points_s": t("diagnostics.critical_points"),
        "diagnostics.crit_runs": cnt["diagnostics.crit_runs"],
        "diagnostics.crit_found": cnt["diagnostics.crit_found"],
        "diagnostics.fit_calls": c("diagnostics.fit_error_bound"),
        "diagnostics.fit_s": t("diagnostics.fit_error_bound"),
        "diagnostics.level_set_rate_s": t("diagnostics.estimate_level_set_rate"),
        "diagnostics.growth_s": t("diagnostics.certify_growth_conditions"),
        "diagnostics.checks_s": outer(dx_checks + ["diagnostics.kl_exponent_sweep"]),
        "checks.records": cnt["checks.records"],
        "checks.suite_s": t("checks.run_invariant_suite"),
        "cli.parse_s": outer(PARSE_SPANS),
        "cli.write_s": t("cli._write_text"),
        "cli.bytes_written": cnt["cli.bytes_written"],
    }
    for chk in SUITE_CHECKS:
        m[f"checks.{chk}_s"] = t(f"checks.check_{chk}")
    # everything above is a per-round figure
    m = {key: value / rounds for key, value in m.items()}
    # ratios and per-iteration figures do not depend on the round count
    m["solver.iter_us.d500"] = 1e6 * _ratio(cnt["solver.d500_s"],
                                           cnt["solver.d500_iters"])
    m["solver.iter_us.quad"] = 1e6 * _ratio(cnt["solver.quad_s"],
                                           cnt["solver.quad_iters"])
    for key in ("grad", "F", "g_value"):
        m[f"solver.{key}_per_iter"] = _ratio(cnt[f"solver.{key}_in_runs"], iters)
    m["diagnostics.accept_ratio"] = _ratio(cnt["diagnostics.samples"],
                                           cnt["diagnostics.draws"])
    traced = t(ROOT_SPAN)
    for layer in LAYERS:
        mask = np.array([nm.startswith(layer + ".") for nm in names], dtype=bool)
        m[f"share.{layer}"] = _ratio(float(own[mask].sum()) if k else 0.0, traced)
    m["share.root"] = _ratio(float(own[ids[ROOT_SPAN]]) if ROOT_SPAN in ids
                             else 0.0, traced)
    m["trace.wall_s"] = float(np.median(round_times)) if round_times else 0.0
    return m
