"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Expected values tagged as derived come from independent oracles computed here
(closed-form optima, dense grids, exhaustive enumeration, analytic risks);
reference optima always come from a separate high-budget deterministic solver.
"""

import math
import time

import numpy as np

from smoothconvex.core import Domain, StepSchedule, make_rng
from smoothconvex import adversary, metrics, online, problems, stochastic


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status} {detail}".rstrip())


# ---------------------------------------------------------------------------
# 1. variance collapse
# ---------------------------------------------------------------------------


def test_criterion_01_variance_collapse():
    t0 = time.perf_counter()
    data = problems.synthetic_classification(500, 20, seed=7, row_norm=1.0)
    prob = problems.logistic_problem(data, lam=1e-2)
    tr = stochastic.emgd(prob, Domain.ball(2.0), seed=1, T=10_000, m=10,
                         probe_variance=True, Delta1=2.0)
    elapsed = time.perf_counter() - t0
    vm = tr.column("variance_mixed")
    vs = tr.column("variance_sgd")
    ok = (bool(np.all(np.diff(vm) <= 1e-15)) and vm[9] <= 1e-3 * vm[0]
          and vs.max() / vs.min() < 10.0 and elapsed < 10.0)
    report(1, "variance-collapse", ok,
           f"ratio={vm[9]/vm[0]:.1e} sgd-spread={vs.max()/vs.min():.2f} "
           f"time={elapsed:.1f}s")
    assert np.all(np.diff(vm) <= 1e-15)
    assert vm[9] <= 1e-3 * vm[0]
    assert vs.max() / vs.min() < 10.0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. epoch solver linear rate
# ---------------------------------------------------------------------------


def test_criterion_02_emgd_linear_rate():
    data = problems.synthetic_regression(50, 5, seed=3, noise=0.05, row_norm=0.6)
    prob = problems.least_squares_problem(data, lam=0.1)
    lam = prob.constants.lam
    dom = Domain.ball(3.0)
    ref = metrics.reference_optimum(prob, dom)
    fstar, wstar = ref["F"], ref["w"]
    f0 = prob.full_value(np.zeros(5))
    delta1 = max(math.sqrt(2 * (f0 - fstar) / lam), float(np.linalg.norm(wstar))) * 1.05
    good = 0
    for seed in range(10):
        tr = stochastic.emgd(prob, dom, seed=seed, T=10_000, T1=5000, m=6, Delta1=delta1)
        if all(rec["objective"] - fstar <= lam * delta1**2 / 2 ** (k + 1)
               for k, rec in enumerate(tr.records, start=1)):
            good += 1
    report(2, "emgd-linear-rate", good >= 8, f"seeds-passing={good}/10")
    assert good >= 8


# ---------------------------------------------------------------------------
# 3. mixed-oracle 1/T rate
# ---------------------------------------------------------------------------


def test_criterion_03_mixedgrad_rate():
    data = problems.synthetic_regression(200, 10, seed=11, noise=0.3, row_norm=1.0)
    prob = problems.least_squares_problem(data, lam=0.0)
    beta = prob.constants.L_comp
    wopt = np.linalg.lstsq(prob.X, prob.y, rcond=None)[0]
    dom = Domain.ball(2.0 * float(np.linalg.norm(wopt)))
    fstar = metrics.reference_optimum(prob, dom)["F"]
    subs, calls = [], []
    full_ok = True
    for m in range(4, 9):
        tr = stochastic.mixed_grad(prob, dom, seed=5, T1=30, m=m,
                                   lambda1=prob.constants.L_full, eta=0.25 / beta)
        subs.append(prob.full_value(tr.final_point) - fstar)
        calls.append(tr.calls_stochastic)
        full_ok &= tr.calls_full == m
        full_ok &= tr.calls_stochastic == 30 * (4 ** m - 1) // 3
    slope = metrics.loglog_slope(calls, subs)
    ok = -1.2 <= slope <= -0.8 and full_ok
    report(3, "mixedgrad-rate", ok, f"slope={slope:.2f} full-calls-exact={full_ok}")
    assert -1.2 <= slope <= -0.8
    assert full_ok


# ---------------------------------------------------------------------------
# 4. one-projection contract
# ---------------------------------------------------------------------------


def test_criterion_04_one_projection():
    obj = problems.NoisyQuadratic(center=np.array([1.2, 0.0]), noise=0.5)
    dom = Domain.ball(0.8)
    fstar = metrics.reference_optimum(obj, dom)["F"]
    Ts = [1000, 10_000, 100_000]
    subs_pd, ratios_st = [], []
    contract_ok = True
    for T in Ts:
        tr = stochastic.sgd_pd(obj, dom, seed=3, T=T)
        contract_ok &= tr.projections == 1 and dom.g(tr.final_point) <= 1e-10
        subs_pd.append(obj.full_value(tr.final_point) - fstar)
        tr2 = stochastic.sgd_st(obj, dom, seed=3, T=T, lam=1.0)
        contract_ok &= tr2.projections == 1 and dom.g(tr2.final_point) <= 1e-10
        ratios_st.append((obj.full_value(tr2.final_point) - fstar) * T / math.log(T))
    slope = metrics.loglog_slope(Ts, subs_pd)
    spread = max(ratios_st) / min(ratios_st)
    ok = contract_ok and -0.65 <= slope <= -0.35 and spread <= 3.0
    report(4, "one-projection", ok,
           f"pd-slope={slope:.2f} st-spread={spread:.2f} contract={contract_ok}")
    assert contract_ok
    assert -0.65 <= slope <= -0.35
    assert spread <= 3.0


# ---------------------------------------------------------------------------
# 5. gradual-variation regret
# ---------------------------------------------------------------------------


def test_criterion_05_gradual_variation_regret():
    dom = Domain.ball(1.0)
    f = np.array([1.0, 0.0])  # exactly representable: regret freezes bitwise
    egv = float(f @ f)
    regs = {}
    for T in (100, 10_000):
        seq = adversary.LossSequence(T=T, kind="const",
                                     _losses=[online.RoundLoss.from_linear(f)] * T)
        omp = online.OMP(dom, L=1.0, eta=online.OMP.tuned_eta(1.0, egv), dim=2)
        for l in seq:
            omp.observe(l)
        regs[T] = metrics.final_regret(omp.decisions, seq, dom)
    const_ok = abs(regs[100] - regs[10_000]) < 1e-9

    T = 10_000
    egvs = [1.0, 4.0, 16.0, 64.0]
    sweeps = []
    for egv in egvs:
        seq = adversary.alternating_linear(egv, T, 5)
        omp = online.OMP(dom, L=1.0,
                         eta=online.OMP.tuned_eta(1.0, adversary.measure_egv_exact(seq)),
                         dim=5)
        for l in seq:
            omp.observe(l)
        sweeps.append(metrics.final_regret(omp.decisions, seq, dom))
    slope = metrics.loglog_slope(egvs, sweeps)
    ratio = sweeps[-1] / sweeps[0]
    ok = const_ok and 0.3 <= slope <= 0.7 and 4.0 <= ratio <= 16.0
    report(5, "gradual-variation-regret", ok,
           f"const-gap={abs(regs[100]-regs[10_000]):.1e} slope={slope:.2f} "
           f"ratio={ratio:.1f}")
    assert const_ok
    assert 0.3 <= slope <= 0.7
    assert 4.0 <= ratio <= 16.0


# ---------------------------------------------------------------------------
# 6. lower-bound contrast
# ---------------------------------------------------------------------------


def test_criterion_06_lower_bound_contrast():
    T, eta = 10_000, 0.2
    seq = adversary.ftrl_adversary(eta, T, gv_target=8000.0)
    dom = Domain.ball(1.0)
    ogd = online.OGD(dom, StepSchedule.constant(eta), dim=1)
    for l in seq:
        ogd.observe(l)
    egv = adversary.measure_egv_exact(seq)
    omp = online.OMP(dom, L=1.0, eta=online.OMP.tuned_eta(1.0, egv), dim=1)
    for l in seq:
        omp.observe(l)
    r_ogd = metrics.final_regret(ogd.decisions, seq, dom)
    r_omp = metrics.final_regret(omp.decisions, seq, dom)
    ok = r_ogd >= 5.0 * r_omp and r_ogd > 0
    report(6, "lower-bound-contrast", ok,
           f"ogd={r_ogd:.1f} omp={r_omp:.2f}")
    assert r_ogd > 0
    assert r_ogd >= 5.0 * r_omp


# ---------------------------------------------------------------------------
# 7. expert advice
# ---------------------------------------------------------------------------


def test_criterion_07_expert_advice():
    rng = make_rng(1)
    T = 2000
    ok = True
    details = []
    for m in (4, 16):
        c1 = rng.uniform(0, 1, size=m)
        c2 = rng.uniform(0, 1, size=m)
        losses = ([online.RoundLoss.from_linear(c1)] * (T // 2)
                  + [online.RoundLoss.from_linear(c2)] * (T // 2))
        egv_inf = float(np.max(np.abs(c1)) ** 2 + np.max(np.abs(c2 - c1)) ** 2)
        learner = online.ExpertOMP(m, eta=online.ExpertOMP.tuned_eta(m, egv_inf))
        total = np.zeros(m)
        learner_loss = 0.0
        for l in losses:
            x = learner.predict()
            learner.observe(l)
            learner_loss += float(l.linear @ x)
            total += l.linear
        regret = learner_loss - float(total.min())  # exhaustive best expert
        bound = math.sqrt(2.0 * egv_inf * math.log(m))
        ok &= regret <= bound * 1.10
        details.append(f"m={m}:{regret:.2f}<={bound:.2f}*1.1")
    report(7, "expert-advice", ok, " ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 8. bandit gradient estimate
# ---------------------------------------------------------------------------


def test_criterion_08_bandit_estimate():
    ok = True
    details = []
    T, delta, L = 100, 0.05, 1.0
    for d in (2, 5, 10):
        rng = make_rng(d)
        learner = online.BanditOMP(Domain.ball(1.0), G=2.0, delta=delta,
                                   eta=delta / (4 * d * math.sqrt(2)), dim=d)
        worst = 0.0
        for _ in range(T):
            c = rng.standard_normal(d) * 0.3
            loss = online.RoundLoss.from_quadratic(c)
            x = learner.predict()
            learner.observe(loss)
            worst = max(worst, float(np.linalg.norm(learner.last_estimate - loss.grad(x))))
        bound = math.sqrt(d) * L * delta / 2.0
        ok &= worst <= bound + 1e-12
        ok &= learner.value_queries == (d + 1) * T
        details.append(f"d={d}:{worst:.4f}<={bound:.4f},q={learner.value_queries}")
    report(8, "bandit-estimate", ok, " ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 9. soft constraints
# ---------------------------------------------------------------------------


def test_criterion_09_soft_constraints():
    T, R, r_c = 10_000, 1.0, 0.7
    rng = make_rng(0)
    g = (lambda x: float(x @ x) - r_c * r_c, lambda x: 2.0 * x)
    centers = [np.array([0.9 * math.cos(0.001 * t), 0.9 * math.sin(0.001 * t)])
               for t in range(T)]
    losses = [online.RoundLoss.from_quadratic(c) for c in centers]
    seq = adversary.LossSequence(T=T, kind="soft", _losses=losses)
    G = max(2.0 * R, R + 0.9)
    F = 0.5 * (R + 0.9) ** 2
    cons = online.ConstraintSet.from_samples([g], dim=2, ball_radius=R,
                                             loss_bound=F, grad_bound=G, rng=rng)
    dom_true = Domain.ball(r_c)
    soft = online.SoftConstraintOGD(cons, T, R=R, dim=2)
    zero = online.ZeroViolationOGD(cons, T, R=R, dim=2)
    for l in seq:
        soft.observe(l)
        zero.observe(l)
    reg_soft = metrics.final_regret(soft.decisions, seq, dom_true)
    viol_soft = float(np.sum([v[0] for v in soft.violations]))
    viol_zero = float(np.sum(zero.raw_violations))
    a, delta, m = soft.a, soft.delta, cons.m
    reg_bound = a * math.sqrt(T) * 1.2
    viol_bound = 1.2 * math.sqrt(2 * (cons.F * T + a * math.sqrt(T)) * math.sqrt(T)
                                 * (delta * R * R / a + m * a / (R * R)))

    # penalty baseline on the fixed-weight instance: linear violation
    v = np.array([1.0, 0.0])
    pcons = online.ConstraintSet(funcs=[(lambda x: 1.0 - float(v @ x), lambda x: -v)],
                                 D=3.0, G=1.0, F=2.0)
    Tp = 1000
    pen = online.PenaltyOGD(pcons, StepSchedule.constant(0.05), delta=0.5, R=2.0,
                            dim=2)
    for _ in range(Tp):
        pen.observe(online.RoundLoss.from_linear(v))
    viol_pen = float(np.sum(np.maximum([x[0] for x in pen.violations], 0.0)))

    ok = (reg_soft <= reg_bound and viol_soft <= viol_bound
          and viol_zero <= 0.0 and viol_pen >= 0.5 * Tp)
    report(9, "soft-constraints", ok,
           f"regret={reg_soft:.1f}<={reg_bound:.1f} viol={viol_soft:.1f}<="
           f"{viol_bound:.1f} zero={viol_zero:.1f}<=0 penalty={viol_pen:.0f}>="
           f"{0.5*Tp:.0f}")
    assert reg_soft <= reg_bound
    assert viol_soft <= viol_bound
    assert viol_zero <= 0.0
    assert viol_pen >= 0.5 * Tp


# ---------------------------------------------------------------------------
# 10. risk transform
# ---------------------------------------------------------------------------


def _psi_bruteforce(z, gamma):
    def H(alphas):
        return ((1 + z) / 2 * problems.smoothed_hinge_value(alphas, gamma)
                + (1 - z) / 2 * problems.smoothed_hinge_value(-alphas, gamma))

    coarse = np.linspace(-20, 20, 400001)
    i = int(np.argmin(H(coarse)))
    fine = np.linspace(coarse[max(i - 2, 0)], coarse[min(i + 2, len(coarse) - 1)],
                       400001)
    return float(problems.smoothed_hinge_value(0.0, gamma) - H(fine).min())


def test_criterion_10a_psi_closed_form_vs_oracle():
    worst = 0.0
    for eta in [round(0.1 * k, 1) for k in range(1, 10)]:
        for gamma in (1.0, 10.0, 100.0):
            gap = abs(problems.psi_transform(eta, gamma) - _psi_bruteforce(eta, gamma))
            worst = max(worst, gap)
    ok = worst < 1e-5
    report(10, "psi-closed-form-vs-oracle", ok, f"max-gap={worst:.2e}")
    assert worst < 1e-5


def _psi_c(e):
    return 0.5 * ((1 + e) * math.log((1 + e) / (2 * e))
                  + (1 - e) * math.log(2 * e / (1 - e)))


def _psi_minorant(e, gamma):
    # derived in problems.psi_transform's docstring: the minimand at
    # alpha* = 1 - log((1-e)/(2e))/gamma, with phi(0) >= 1
    return (e - _psi_c(e) / gamma
            - (1 - e) / (2 * gamma) * math.log1p((1 - e) / (2 * e) * math.exp(-2 * gamma)))


def test_criterion_10b_psi_simple_lower_bound():
    # psi stays above the minorant derived in problems.psi_transform's
    # docstring and, for gamma >= 10, within 1e-5 of it (the dropped
    # phi(0) - 1 is log(1 + e^-gamma)/gamma), so a psi that is too large
    # fails as well as one that is too small.
    # Erratum, kept checked: the thesis simplifies the minorant to
    # |eta| - log(1/|eta|)/gamma. Up to O(e^-2gamma), gamma*(psi - that form)
    # is log(1/e) - c(e) + log(1 + e^-gamma), so the form fails exactly where
    # c(e) - log(1/e) > log(1 + e^-gamma): beyond the crossover e ~ 0.6545
    # (where c(e) = log(1/e)) once gamma is large.
    below, loose, violations, predicted = [], [], set(), set()
    for eta in [round(0.1 * k, 1) for k in range(1, 10)]:
        for gamma in (1.0, 10.0, 100.0):
            psi = problems.psi_transform(eta, gamma)
            lb = _psi_minorant(eta, gamma)
            if psi < lb - 1e-12:
                below.append((eta, gamma))
            if gamma >= 10.0 and psi - lb > 1e-5:
                loose.append((eta, gamma))
            if psi < eta - math.log(1.0 / eta) / gamma - 1e-12:
                violations.add((eta, gamma))
            if _psi_c(eta) - math.log(1.0 / eta) > math.log1p(math.exp(-gamma)):
                predicted.add((eta, gamma))
    crossover = (_psi_c(0.6544) < math.log(1 / 0.6544)
                 and _psi_c(0.6546) > math.log(1 / 0.6546))
    erratum = {(eta, gamma) for eta in (0.7, 0.8, 0.9) for gamma in (10.0, 100.0)}
    ok = not below and not loose and crossover and violations == predicted == erratum
    report(10, "psi-derived-lower-bound", ok,
           f"below={below} loose={loose} thesis-form-violated-at={sorted(violations)}")
    assert not below, f"exact transform dips below the derived minorant at {below}"
    assert not loose, f"exact transform exceeds the derived minorant by > 1e-5 at {loose}"
    assert crossover, "c(e) = log(1/e) is not crossed within (0.6544, 0.6546)"
    assert violations == predicted == erratum, (
        f"thesis form violated at {sorted(violations)}, predicted "
        f"{sorted(predicted)}, expected {sorted(erratum)}")


# ---------------------------------------------------------------------------
# 11. foundations suite
# ---------------------------------------------------------------------------


def test_criterion_11_foundations():
    rng = make_rng(77)
    doms = [Domain.ball(1.0), Domain.box(-np.ones(3), np.ones(3)),
            Domain.simplex(3), Domain.l1_ball(1.2, dim=3),
            Domain.halfspace_cut(np.array([1.0, 0.2, -0.4]), 0.3)]
    ok = True
    for dom in doms:
        for _ in range(1000):
            x = rng.uniform(-3, 3, size=3)
            p = dom.project(x)
            ok &= bool(np.max(np.abs(dom.project(p) - p)) <= 1e-12)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=3)
            y = rng.uniform(-3, 3, size=3)
            ok &= (np.linalg.norm(dom.project(x) - dom.project(y))
                   <= np.linalg.norm(x - y) + 1e-12)
            z = dom.sample(rng, dim=3)
            ok &= (np.linalg.norm(x - dom.project(x))
                   <= np.linalg.norm(x - z) + 1e-12)

    data = problems.synthetic_classification(30, 4, seed=5)
    prob = problems.logistic_problem(data, lam=0.05)
    for _ in range(50):
        w = rng.standard_normal(4)
        h = 1e-5 * (1.0 + np.linalg.norm(w))
        fd = np.array([(prob.full_value(w + h * e) - prob.full_value(w - h * e)) / (2 * h)
                       for e in np.eye(4)])
        g = prob.full_grad(w)
        ok &= np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))

    # unbiasedness at a fixed point, 1e5 draws, 5 standard errors
    w = rng.standard_normal(4) * 0.3
    rng2 = make_rng(78)
    samples = np.stack([prob.stochastic_grad(w, rng2) for _ in range(100_000)])
    se = samples.std(axis=0, ddof=1) / math.sqrt(100_000)
    ok &= bool(np.all(np.abs(samples.mean(axis=0) - prob.full_grad(w)) <= 5 * se + 1e-12))

    # seed determinism of a full solver run
    dom = Domain.ball(1.0)
    cfg = dict(seed=17, T=300, schedule=StepSchedule.inverse_sqrt(0.1), keep_iterates=True)
    a = stochastic.sgd(prob, dom, **cfg)
    b = stochastic.sgd(prob, dom, **cfg)
    ok &= np.array_equal(a.final_point, b.final_point)
    ok &= all(np.array_equal(ra["w"], rb["w"])
              for ra, rb in zip(a.records, b.records) if "w" in ra)

    report(11, "foundations", ok)
    assert ok


# ---------------------------------------------------------------------------
# 12. mistake bound
# ---------------------------------------------------------------------------


def test_criterion_12_mistake_bound():
    T, d = 2000, 2
    seq = adversary.classification_stream(0.1, T, d, seed=7)
    learner = online.HingeClassifierPD(d, R=1.0)
    for gx in seq.meta["examples"]:
        learner.round(gx, 1.0)
    pts = np.stack(seq.meta["examples"])

    def hinge_total(w):
        return float(np.sum(np.maximum(0.0, 1.0 - pts @ w)))

    # best fixed comparator by 2-D grid (coarse polar + local refinement)
    best_w, best = np.zeros(2), hinge_total(np.zeros(2))
    for r in np.linspace(0, 1, 101):
        for th in np.linspace(0, 2 * math.pi, 361):
            w = r * np.array([math.cos(th), math.sin(th)])
            v = hinge_total(w)
            if v < best:
                best_w, best = w, v
    for a in np.linspace(-0.02, 0.02, 41):
        for b in np.linspace(-0.02, 0.02, 41):
            w = best_w + np.array([a, b])
            if w @ w <= 1.0:
                best = min(best, hinge_total(w))
    egv = 0.0
    prev = np.zeros(d)
    for gx in learner.mistake_examples:
        egv += float((gx - prev) @ (gx - prev))
        prev = gx
    bound = best + math.sqrt(2.0) * (1.0 ** 2 + 1.0) * max(2.0, math.sqrt(egv))
    ok = learner.mistakes <= bound * 1.10
    report(12, "mistake-bound", ok,
           f"mistakes={learner.mistakes} hinge-best={best:.1f} bound={bound:.1f}")
    assert learner.mistakes <= bound * 1.10
