"""The array-valued regularizers against a plain-Python per-coordinate
reference.

``_Ref*`` below are the scalar formulas the regularizers used before they
became array-valued: one Python call per coordinate, candidate
enumeration in lists, the same 1e-10 tie rule.  The array methods must
return the same minimizer and the same tie flag on every entry, and the
same values and subdifferential distances.
"""

import math

import numpy as np
import pytest

from vbpg.core import KernelSpec, SmoothObjective, SolverConfig
from vbpg.problems import ProblemSpec, build_regularizer
from vbpg.solver import vbpg_run

from reference import prox_at, subdiff_at, subdiff_distance, value_at


def _pick_candidate(values, cands):
    best = min(values)
    tol = 1e-10 * (1.0 + abs(best))
    tied = [t for t, v in zip(cands, values) if v <= best + tol]
    t_star = min(tied, key=lambda t: (abs(t), t))
    return float(t_star), bool(max(tied) - min(tied) > 1e-9)


class _RefZero:
    def value(self, t):
        return 0.0

    def prox(self, v, weight, eps):
        return v, False

    def subdiff(self, t, c):
        return abs(c)


class _RefL1:
    def __init__(self, lam):
        self.lam = lam

    def value(self, t):
        return self.lam * abs(t)

    def prox(self, v, weight, eps):
        thr = self.lam * eps / weight
        return math.copysign(max(abs(v) - thr, 0.0), v), False

    def subdiff(self, t, c):
        if t == 0.0:
            return max(abs(c) - self.lam, 0.0)
        return abs(c + self.lam * math.copysign(1.0, t))


class _RefSqL2:
    def __init__(self, lam):
        self.lam = lam

    def value(self, t):
        return 0.5 * self.lam * t * t

    def prox(self, v, weight, eps):
        kappa = weight / eps
        return kappa * v / (self.lam + kappa), False

    def subdiff(self, t, c):
        return abs(c + self.lam * t)


class _RefBox:
    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def value(self, t):
        return 0.0 if self.lo <= t <= self.hi else math.inf

    def prox(self, v, weight, eps):
        return min(max(v, self.lo), self.hi), False

    def subdiff(self, t, c):
        if t < self.lo or t > self.hi:
            return math.inf
        if t == self.lo:
            return max(-c, 0.0)
        if t == self.hi:
            return max(c, 0.0)
        return abs(c)


class _RefScad:
    def __init__(self, lam, a):
        self.lam, self.a = lam, a

    def value(self, t):
        lam, a = self.lam, self.a
        u = abs(t)
        if u <= lam:
            return lam * u
        if u <= a * lam:
            return (2 * a * lam * u - u * u - lam * lam) / (2 * (a - 1))
        return 0.5 * lam * lam * (a + 1)

    def prox(self, v, weight, eps):
        lam, a = self.lam, self.a
        kappa = weight / eps
        cands = [0.0, lam, -lam, a * lam, -a * lam]
        cands.append(min(max(v - lam / kappa, 0.0), lam))
        cands.append(min(max(v + lam / kappa, -lam), 0.0))
        den = kappa - 1.0 / (a - 1.0)
        if den != 0.0:
            t_mid = (kappa * v - a * lam / (a - 1.0)) / den
            cands.append(min(max(t_mid, lam), a * lam))
            t_mid_neg = (kappa * v + a * lam / (a - 1.0)) / den
            cands.append(min(max(t_mid_neg, -a * lam), -lam))
        if v >= a * lam:
            cands.append(v)
        if v <= -a * lam:
            cands.append(v)
        vals = [self.value(t) + 0.5 * kappa * (t - v) ** 2 for t in cands]
        return _pick_candidate(vals, cands)

    def subdiff(self, t, c):
        if t == 0.0:
            return max(abs(c) - self.lam, 0.0)
        lam, a = self.lam, self.a
        u, s = abs(t), math.copysign(1.0, t)
        if u <= lam:
            d = s * lam
        elif u <= a * lam:
            d = s * (a * lam - u) / (a - 1)
        else:
            d = 0.0
        return abs(c + d)


class _RefMcp:
    def __init__(self, lam, gamma):
        self.lam, self.gamma = lam, gamma

    def value(self, t):
        lam, gamma = self.lam, self.gamma
        u = abs(t)
        if u <= gamma * lam:
            return lam * u - u * u / (2 * gamma)
        return 0.5 * gamma * lam * lam

    def prox(self, v, weight, eps):
        lam, gamma = self.lam, self.gamma
        kappa = weight / eps
        cands = [0.0, gamma * lam, -gamma * lam]
        den = kappa - 1.0 / gamma
        if den != 0.0:
            cands.append(min(max((kappa * v - lam) / den, 0.0), gamma * lam))
            cands.append(min(max((kappa * v + lam) / den, -gamma * lam), 0.0))
        if abs(v) >= gamma * lam:
            cands.append(v)
        vals = [self.value(t) + 0.5 * kappa * (t - v) ** 2 for t in cands]
        return _pick_candidate(vals, cands)

    def subdiff(self, t, c):
        if t == 0.0:
            return max(abs(c) - self.lam, 0.0)
        d = math.copysign(max(self.lam - abs(t) / self.gamma, 0.0), t)
        return abs(c + d)


class _RefPower:
    def __init__(self, p):
        self.p = p

    def value(self, t):
        return abs(t) ** self.p

    def prox(self, v, weight, eps):
        kappa = weight / eps
        p = self.p
        s = math.copysign(1.0, v)
        u = abs(v)
        if u == 0.0:
            return 0.0, False
        if p == 2.0:
            t = kappa * u / (2.0 + kappa)
        elif p == 1.5:
            r = (-1.5 + math.sqrt(2.25 + 4 * kappa * kappa * u)) / (2 * kappa)
            t = r * r
        elif p == 3.0:
            t = (-kappa + math.sqrt(kappa * kappa + 12 * kappa * u)) / 6.0
        else:
            pc = kappa / 4.0
            qc = -kappa * u / 4.0
            disc = math.sqrt(qc * qc / 4.0 + pc ** 3 / 27.0)
            t = np.cbrt(-qc / 2.0 + disc) + np.cbrt(-qc / 2.0 - disc)
        return s * max(t, 0.0), False

    def subdiff(self, t, c):
        d = self.p * math.copysign(abs(t) ** (self.p - 1.0), t) if t != 0.0 else 0.0
        return abs(c + d)


class _RefJump:
    def __init__(self, xbar):
        self.xbar = xbar

    def value(self, t):
        if t == self.xbar:
            return -1.0
        return 0.5 * (t - self.xbar) ** 2

    def prox(self, v, weight, eps):
        kappa = weight / eps
        cands = [self.xbar, (self.xbar + kappa * v) / (1.0 + kappa)]
        vals = [self.value(t) + 0.5 * kappa * (t - v) ** 2 for t in cands]
        return _pick_candidate(vals, cands)

    def subdiff(self, t, c):
        if t == self.xbar:
            return 0.0
        return abs(c + (t - self.xbar))


# (kind, params, reference); every kind appears, with several parameter sets
CASES = [
    ("zero", {}, _RefZero()),
    ("l1", {"lam": 0.8}, _RefL1(0.8)),
    ("l1", {"lam": 0.15}, _RefL1(0.15)),
    ("sq_l2", {"lam": 0.7}, _RefSqL2(0.7)),
    ("box", {"lo": -1.0, "hi": 1.0}, _RefBox(-1.0, 1.0)),
    ("box", {"lo": 0.0, "hi": 2.5}, _RefBox(0.0, 2.5)),
    ("scad", {"lam": 1.0, "a": 3.7}, _RefScad(1.0, 3.7)),
    ("scad", {"lam": 0.5, "a": 3.0}, _RefScad(0.5, 3.0)),
    ("mcp", {"lam": 1.0, "gamma": 2.5}, _RefMcp(1.0, 2.5)),
    ("mcp", {"lam": 0.6, "gamma": 4.0}, _RefMcp(0.6, 4.0)),
    ("mcp", {"lam": 1.0, "gamma": 2.0}, _RefMcp(1.0, 2.0)),
    ("power", {"p": 1.5}, _RefPower(1.5)),
    ("power", {"p": 2.0}, _RefPower(2.0)),
    ("power", {"p": 3.0}, _RefPower(3.0)),
    ("power", {"p": 4.0}, _RefPower(4.0)),
    ("jump_quadratic", {"xbar": 0.0}, _RefJump(0.0)),
    ("jump_quadratic", {"xbar": 0.3}, _RefJump(0.3)),
]
IDS = [f"{k}-{'-'.join(f'{v:g}' for v in p.values())}" for k, p, _ in CASES]


def _special_inputs(kind, params):
    """(v, weight, eps) triples at thresholds, kinks and exact ties."""
    w_eps = [(1.0, 0.5), (1.0, 1.0), (2.0, 0.5), (1.0, 4.0), (0.5, 1.0),
             (1.0, 2.0), (0.8, 1.6)]
    # kappa = rho exactly: the middle-piece candidates drop out
    if kind == "mcp":
        w_eps.append((1.0, params["gamma"]))
    if kind == "scad":
        w_eps.append((1.0, params["a"] - 1.0))
    vs = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5]
    lam = params.get("lam", 1.0)
    triples = []
    for w, eps in w_eps:
        kappa = w / eps
        pts = list(vs) + [lam / kappa, lam * eps / w, math.sqrt(2.0 / kappa)]
        if kind == "mcp":
            gl = params["gamma"] * lam
            pts += [gl, gl * (1 + 1e-12), gl * (1 - 1e-12),
                    math.sqrt(params["gamma"] * lam * lam / kappa)]
        if kind == "scad":
            a = params["a"]
            pts += [a * lam, lam + lam / kappa, a * lam * (1 - 1e-13)]
        if kind == "box":
            pts += [params["lo"], params["hi"]]
        if kind == "jump_quadratic":
            xb = params["xbar"]
            pts += [xb, xb + math.sqrt(2.0 * (1.0 + kappa) / kappa ** 2),
                    xb + math.sqrt(2.0 / kappa + 2.0)]
        for v in pts:
            triples += [(v, w, eps), (-v, w, eps)]
    return np.array(triples, dtype=float)


def _random_inputs(seed, n=4000):
    rng = np.random.default_rng(seed)
    return rng.uniform([-6.0, 0.5, 0.1], [6.0, 2.0, 1.0], size=(n, 3))


def _check_prox(g, ref, triples):
    v, w, eps = triples.T
    t, tied = g.prox(v, w, eps)
    for i, (vi, wi, ei) in enumerate(triples.tolist()):
        t_ref, tie_ref = ref.prox(vi, wi, ei)
        assert t[i] == t_ref, (vi, wi, ei, t[i], t_ref)
        assert bool(tied[i]) == tie_ref, (vi, wi, ei)
        if i < 250:  # the one-element view
            assert prox_at(g, vi, wi, ei) == (t_ref, tie_ref)


@pytest.mark.parametrize("kind,params,ref", CASES, ids=IDS)
def test_array_prox_matches_reference_on_random_triples(kind, params, ref):
    g = build_regularizer(kind, params)
    _check_prox(g, ref, _random_inputs(2024))


@pytest.mark.parametrize("kind,params,ref", CASES, ids=IDS)
def test_array_prox_matches_reference_at_thresholds_and_ties(kind, params, ref):
    g = build_regularizer(kind, params)
    _check_prox(g, ref, _special_inputs(kind, params))


@pytest.mark.parametrize("kind,params,ref", CASES, ids=IDS)
def test_scaled_prox_with_one_eps(kind, params, ref):
    # the vector entry point: one eps, per-coordinate weights and a linear term
    g = build_regularizer(kind, params)
    rng = np.random.default_rng(4)
    anchor = rng.uniform(-5, 5, 64)
    linear = rng.uniform(-3, 3, 64)
    weights = rng.uniform(0.5, 2.0, 64)
    eps = 0.37
    t, tied = g.scaled_prox(anchor, linear, weights, eps)
    v = anchor - eps * linear / weights
    ref_out = [ref.prox(float(vi), float(wi), eps)
               for vi, wi in zip(v, weights)]
    assert t.tolist() == [r[0] for r in ref_out]
    assert tied == any(r[1] for r in ref_out)


@pytest.mark.parametrize("kind,params,ref", CASES, ids=IDS)
def test_scaled_prox_with_the_euclidean_scalar_weight(kind, params, ref):
    # the euclidean kernel passes weight 1.0 as a scalar; eps = 1/rho makes
    # kappa = rho exactly, where MCP and SCAD drop their middle candidates
    g = build_regularizer(kind, params)
    v = np.linspace(-5.0, 5.0, 201)
    rho = g.semiconvex_rho
    for eps in [0.3, 1.0] + ([1.0 / rho] if 0 < rho < math.inf else []):
        t, tied = g.scaled_prox(v, np.zeros(v.size), 1.0, eps)
        ref_out = [ref.prox(vi, 1.0, eps) for vi in v.tolist()]
        assert t.tolist() == [r[0] for r in ref_out]
        assert tied == any(r[1] for r in ref_out)


@pytest.mark.parametrize("kind,params,ref", CASES, ids=IDS)
def test_values_and_subdiff_match_reference(kind, params, ref):
    g = build_regularizer(kind, params)
    rng = np.random.default_rng(9)
    T = np.concatenate([rng.uniform(-6, 6, 500),
                        [0.0, -0.0, 1.0, -1.0, 2.5, -2.5],
                        list(params.values())])
    C = rng.uniform(-3, 3, T.size)
    vals = g.values(T)
    parts = g.subdiff_parts(T, C)
    for i, (ti, ci) in enumerate(zip(T, C)):
        assert vals[i] == ref.value(float(ti)), ti
        assert value_at(g, float(ti)) == ref.value(float(ti))
        assert parts[i] == ref.subdiff(float(ti), float(ci)), (ti, ci)
        assert subdiff_at(g, float(ti), float(ci)) == parts[i]
    # vectors of length 2: the same sum as the per-coordinate reference
    for x in T[:200].reshape(-1, 2):
        assert g.value(x) == sum(ref.value(float(t)) for t in x)
    X = T[:500].reshape(-1, 5)
    assert g.value(X).tolist() == [sum(row) for row in
                                   vals[:500].reshape(-1, 5).tolist()]
    assert subdiff_distance(g, T[:4], C[:4]) == pytest.approx(
        math.sqrt(sum(ref.subdiff(float(t), float(c)) ** 2
                      for t, c in zip(T[:4], C[:4]))), rel=1e-15)


def test_prox_1d_view():
    # a one-entry call gives the entry of a longer call, tie flag included
    g = build_regularizer("mcp", {"lam": 1.0, "gamma": 2.0})
    assert prox_at(g, math.sqrt(8.0), 1.0, 4.0) == (0.0, True)
    t, tied = g.prox(np.array([math.sqrt(8.0), 1.0]), np.array([1.0, 2.0]), 4.0)
    assert prox_at(g, 1.0, 2.0, 4.0) == (float(t[1]), bool(tied[1]))


# ---------------------------------------------------------------------------
# MCP and SCAD: the direct minimizer against the kept enumeration
# ---------------------------------------------------------------------------

FOLDED = [("mcp", {"lam": 1.0, "gamma": 2.5}, _RefMcp(1.0, 2.5)),
          ("mcp", {"lam": 0.6, "gamma": 4.0}, _RefMcp(0.6, 4.0)),
          ("scad", {"lam": 1.0, "a": 3.7}, _RefScad(1.0, 3.7)),
          ("scad", {"lam": 0.5, "a": 3.0}, _RefScad(0.5, 3.0))]
FOLDED_IDS = [f"{k}-{'-'.join(f'{v:g}' for v in p.values())}"
              for k, p, _ in FOLDED]
# eps rho on both sides of 1 (the subproblem is strongly convex below it),
# and exactly 1, where the middle candidates drop out
EPS_RHO = (0.05, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 4.0)
OFFSETS = np.concatenate([[0.0], np.logspace(-16, -3, 40)])
OFFSETS = np.concatenate([OFFSETS, -OFFSETS[1:]])


def _thresholds(kind, params, kappa):
    """The v where the enumeration's winner changes piece, per entry of
    kappa: lam/kappa and gamma lam for MCP; lam/kappa, lam (1 + 1/kappa)
    and a lam for SCAD."""
    lam = params["lam"]
    if kind == "mcp":
        return [lam / kappa, np.full_like(kappa, params["gamma"] * lam)]
    return [lam / kappa, lam * (1.0 + 1.0 / kappa),
            np.full_like(kappa, params["a"] * lam)]


def _prox_inputs(kind, params, rng):
    """(v, weights, eps) calls: per eps, one with the scalar weight 1.0 and
    one with a weight vector, each on uniform draws and on every threshold
    moved by 0 and +-1e-16 .. 1e-3, both signs, plus +-0.0."""
    rho = build_regularizer(kind, params).semiconvex_rho
    calls = []
    for er in EPS_RHO:
        eps = er / rho
        for weights in (1.0, rng.uniform(0.5, 2.0, 24)):
            kappa = np.atleast_1d(weights / eps)
            near = np.concatenate([(th[:, None] + OFFSETS).ravel()
                                   for th in _thresholds(kind, params, kappa)])
            v = np.concatenate([near, -near, [0.0, -0.0],
                                rng.uniform(-8.0, 8.0, 6000) * params["lam"]])
            if np.ndim(weights):
                weights = np.resize(weights, v.size)
            calls.append((v, weights, eps))
    return calls


@pytest.mark.parametrize("kind,params,ref", FOLDED, ids=FOLDED_IDS)
def test_direct_prox_matches_the_enumeration_bit_for_bit(kind, params, ref):
    g = build_regularizer(kind, params)
    rng = np.random.default_rng(18)
    calls = _prox_inputs(kind, params, rng)
    assert sum(v.size for v, _, _ in calls) >= 100_000
    sample = []
    for v, weights, eps in calls:
        t, tied = g.prox(v, weights, eps)
        t_enum, tied_enum = g._enumerate(v, weights / eps)
        # signed zeros count: compare the bits
        assert np.array_equal(t.view(np.int64), t_enum.view(np.int64))
        assert np.array_equal(tied, tied_enum)
        w = np.broadcast_to(weights, v.shape)
        pick = rng.choice(v.size, 320, replace=False)
        sample += [(v[i], w[i], eps, t[i], tied[i]) for i in pick]
    # and a subsample against the per-coordinate reference
    assert len(sample) >= 5000
    for vi, wi, ei, ti, tie in sample:
        assert ref.prox(float(vi), float(wi), ei) == (ti, tie), (vi, wi, ei)


@pytest.mark.parametrize("kind,params", [
    ("mcp", {"lam": 0.3, "gamma": 3.0}), ("scad", {"lam": 0.3, "a": 3.7})],
    ids=["mcp", "scad"])
def test_direct_prox_enumerates_no_entry_of_a_generic_input(kind, params):
    # a d = 500 prox at eps = 0.9 m/rho, as the solver takes it: no entry
    # lands in the tie band, so none goes through the enumeration
    g = build_regularizer(kind, params)
    enumerated = []
    g._enumerate = lambda v, kappa, _e=g._enumerate: (
        enumerated.append(v.size) or _e(v, kappa))
    rng = np.random.default_rng(500)
    v = rng.normal(0.0, 0.5, 500)
    for weights in (1.0, rng.uniform(0.5, 2.0, 500)):
        eps = 0.9 * np.min(weights) / g.semiconvex_rho
        t, tied = g.prox(v, weights, eps)
        assert not tied.any()
    assert enumerated == []


def _counted(problem_spec):
    """The spec's problem with counters on grad f, f and g."""
    p = problem_spec.build()
    counts = {"grad": 0, "f": 0, "g": 0}

    def counter(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    f = SmoothObjective(value=counter("f", p.f.value),
                        gradient=counter("grad", p.f.gradient),
                        lipschitz_L=p.f.lipschitz_L, convex=p.f.convex)
    p.g.value = counter("g", p.g.value)
    object.__setattr__(p, "f", f)
    return p, counts


QUAD = {"Q": [[2.0, 0.3], [0.3, 1.0]], "b": [0.5, -0.4]}


@pytest.mark.parametrize("g_kind,g_params,kernel", [
    ("l1", {"lam": 0.3}, KernelSpec.euclidean()),
    ("mcp", {"lam": 0.6, "gamma": 4.0}, KernelSpec.diagonal([1.5, 1.0])),
    ("scad", {"lam": 0.5, "a": 3.7}, KernelSpec.quadratic([[1.3, 0.2],
                                                            [0.2, 1.0]])),
])
@pytest.mark.parametrize("max_iters", [0, 7, 600])
def test_solver_makes_one_gradient_f_and_g_call_per_iteration(
        g_kind, g_params, kernel, max_iters):
    p, counts = _counted(ProblemSpec("c", "quadratic", QUAD, g_kind,
                                     g_params, 2))
    cfg = SolverConfig.constant(0.3, kernel, max_iters=max_iters)
    trace = vbpg_run(p, cfg, np.array([1.5, -1.0]))
    n = trace.n_iters
    assert n == max_iters or trace.terminated_reason != "max_iters"
    assert counts == {"grad": n + 1, "f": n + 1, "g": n + 1}
