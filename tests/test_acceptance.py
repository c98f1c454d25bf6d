"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Three sub-criteria reproduce documented source defects and are
marked strict-xfail with the analysis recorded in DECISIONS.md (the
decisions ledger): the verbatim weight difference of the corrupted worked
gallery example, the absolute local-limit threshold at n = 400, and the
Monte Carlo total-variation bound.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

import display_matrices as DM
from oracles import bruhat_leq, lemma34_check
from chamberwalks import hecke as H
from chamberwalks import limit as L
from chamberwalks import plancherel as P
from chamberwalks import reps as R
from chamberwalks import walks as WK
from chamberwalks import weyl as W


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------


def test_c01_exact_algebra_relations():
    t0 = time.time()
    rng = random.Random(101)
    for q in (2, 3, 5):
        F = H.ScalarField(q)
        gens = [H.t_element(F, [(W.GEN[i], F.one)]) for i in range(3)]
        for g in gens:
            assert H.mul(g, g) == H.unit(F) + g.scaled(F.quad)
        for a, b in ((0, 1), (1, 2), (0, 2)):
            assert H.mul(H.mul(gens[a], gens[b]), gens[a]) == \
                H.mul(H.mul(gens[b], gens[a]), gens[b])
        # star/trace orthogonality on the length-<=3 ball
        for u in W.ball(3):
            for v in W.ball(3):
                tr = H.trace(H.mul(H.star(H.t_element(F, [(u, F.one)])),
                                   H.t_element(F, [(v, F.one)])))
                assert tr == (F.one if u == v else F.zero)
        # commutation relation on 200 random (generator, weight, finite) triples
        for _ in range(200 // 3 + 1):
            i = rng.choice((1, 2))
            mu = (rng.randint(-3, 3), rng.randint(-3, 3))
            u = rng.randrange(6)
            lhs = H.bernstein_mul(
                H.t_to_x(H.t_element(F, [(W.GEN[i], F.one)])),
                H.x_element(F, [((mu, u), F.one)]),
            )
            rhs = H.bernstein_mul(
                H.x_element(F, [((W.w0_apply(i, mu), 0), F.one)]),
                H.t_to_x(H.t_element(F, [(W.GEN[i], F.one)])),
            )
            geom = H.HeckeElement("X", {}, F)
            for e, s in H._geometric_terms(mu, i):
                geom = geom + H.x_element(F, [((e, 0), F.make(s))])
            rhs = rhs + geom.scaled(F.quad)
            rhs = H.bernstein_mul(rhs, H.x_element(F, [(((0, 0), u), F.one)]))
            assert lhs == rhs
    elapsed = time.time() - t0
    report(1, elapsed < 10,
           f"exact quadratic/braid/orthogonality/commutation, q=2,3,5 "
           f"({elapsed:.1f}s)")


def test_c02_basis_change_oracle(field2, ball6):
    t0 = time.time()
    F = field2
    for w in ball6:
        assert WK.expand_t(w, F) == H.t_to_x(H.t_element(F, [(w, F.one)])), w
    # word identities
    h = H.unit(F)
    for i, inv in ((2, True), (0, False), (2, False), (1, False)):
        h = H.rmul_gen(h, i, inverse=inv)
    assert H.t_to_x(h).terms == {((1, 0), 0): F.one}
    h = H.unit(F)
    for i in (0, 1, 2, 1):
        h = H.rmul_gen(h, i)
    assert H.t_to_x(h).terms == {((1, 1), 0): F.one}
    elapsed = time.time() - t0
    report(2, elapsed < 30,
           f"gallery expansion == Bernstein straightening on all {len(ball6)} "
           f"elements of length <= 6, plus word identities ({elapsed:.1f}s)")


def test_c03_spherical_suite(field2):
    t0 = time.time()
    F = field2
    e0x = H.t_to_x(H.symmetrizer_one(F))
    doms = [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2),
            (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]
    for lam in doms:
        xl = H.x_element(F, [((lam, 0), F.one)])
        lhs = H.bernstein_mul(H.bernstein_mul(e0x, xl), e0x)
        rhs = H.bernstein_mul(H.macdonald_p(F, lam), e0x)
        assert lhs == rhs, lam
    # symmetrizer expansion over intertwiners
    dx = H.HeckeElement("X", {(e, 0): c for e, c in H._coroot_product(F, F.one).items()}, F)
    qinv = F.half_pow(-2)
    wq_inv = H.w0_poincare(F).inv()
    rhs = H.HeckeElement("X", {}, F)
    for u in range(6):
        ui_w0 = W.w0_mult(W.w0_inv(u), W.W0_LONGEST)
        cw = H.unit(F, "X")
        for root in W.inversion_set(ui_w0):
            ua = W.w0_apply(u, root)
            cw = H.bernstein_mul(cw, H.x_element(
                F, [(((0, 0), 0), F.one), (((-ua[0], -ua[1]), 0), -qinv)]))
        rhs = rhs + H.bernstein_mul(cw, H.tau_element(F, u)).scaled(
            F.half_pow(6 - W.w0_length(u)) * wq_inv)
    assert H.bernstein_mul(dx, e0x) == rhs
    # one-sided intertwiner multiples of the symmetrizer
    rho = W.RHO_VEE
    for u in range(6):
        lhs = H.bernstein_mul(H.tau_element(F, u), e0x)
        urho = W.w0_apply(u, rho)
        sign = F.one if W.w0_length(u) % 2 == 0 else -F.one
        coefs = H.x_element(F, [(((urho[0] - rho[0], urho[1] - rho[1]), 0),
                                 F.half_pow(W.w0_length(u)) * sign)])
        for root in W.inversion_set(W.w0_inv(u)):
            ub = W.w0_apply(u, root)
            coefs = H.bernstein_mul(coefs, H.x_element(
                F, [(((0, 0), 0), F.one), (((-ub[0], -ub[1]), 0), -qinv)]))
        assert lhs == H.bernstein_mul(coefs, e0x), u
    elapsed = time.time() - t0
    report(3, elapsed < 60,
           f"spherical identity for 10 dominant weights + symmetrizer "
           f"expansions, all exact ({elapsed:.1f}s)")


def test_c04_golden_gallery_counts():
    gallery = WK.enumerate_walks((1, 2, 1, 0))
    ok = len(gallery) == 10
    by_weight = {}
    for p in gallery:
        by_weight.setdefault(p.weight, []).append(p)
    grouped = sorted((wt, len(ps)) for wt, ps in by_weight.items())
    ok = ok and grouped == [((-1, -1), 1), ((-1, 0), 1), ((0, -1), 1),
                            ((0, 0), 3), ((0, 1), 1), ((1, 0), 1), ((1, 1), 2)]
    # reproducible structure of the corrupted worked example
    w = W.from_word((0, 1, 2, 0, 1, 0, 2, 1, 0, 1, 2, 0))
    v = W.from_word((0, 1, 2, 0, 1, 2, 1, 0, 2, 0))
    ok = ok and v == W.from_word((0, 1, 2, 0, 2, 1, 0, 2))
    ok = ok and W.length(w) == 12 and W.length(v) == 8 and bruhat_leq(v, w)
    report(4, ok, "10 galleries of the golden type with frozen weight "
                  "grouping; worked-example words verified consistent")


@pytest.mark.xfail(
    strict=True,
    reason="source defect: the printed difference of the worked gallery "
    "example is not reproducible from the printed words under any reading "
    "(actual difference is -(3,2)); see the decisions ledger",
)
def test_c04b_worked_example_verbatim_difference():
    w = W.from_word((0, 1, 2, 0, 1, 0, 2, 1, 0, 1, 2, 0))
    v = W.from_word((0, 1, 2, 0, 2, 1, 0, 2))
    diff = (v.mu[0] - w.mu[0], v.mu[1] - w.mu[1])
    print(f"criterion 04b FAIL - verbatim difference check: got {diff}, "
          f"printed value (1, 3)")
    assert diff == (1, 3)


def test_c05_module_fidelity():
    worst = 0.0
    for q in (2.0, 3.0):
        t = (0.37 + 0.56j, -0.83 + 0.44j)
        rep = R.principal_series(q, t)
        for i, disp in enumerate(DM.six_dim(q, *t)):
            worst = max(worst, np.abs(rep.gens[i] / q ** 0.5 - disp).max())
        u = np.exp(0.61j)
        rep3 = R.induced_three_dim(q, u)
        for i, disp in enumerate(DM.three_dim(q, u)):
            worst = max(worst, np.abs(rep3.gens[i] / q ** 0.5 - disp).max())
        # displayed walk operators on the torus, Hermitian
        th = (0.7, -1.3)
        repw = R.principal_series(q, (np.exp(1j * th[0]), np.exp(1j * th[1])))
        m = R.p_matrix(repw)
        worst = max(worst, np.abs(m - DM.walk_six_dim(q, *th)).max())
        worst = max(worst, np.abs(m - m.conj().T).max())
        m3 = R.p_matrix(R.induced_three_dim(q, np.exp(0.9j)))
        worst = max(worst, np.abs(m3 - DM.walk_three_dim(q, 0.9)).max())
        worst = max(worst, np.abs(m3 - m3.conj().T).max())
    # reducibility exactly on the boundary set
    q = 2
    kato_ok = (
        R.is_principal_irreducible(q, (np.exp(0.7j), np.exp(1.3j)))
        and not R.is_principal_irreducible(q, (2.0, 0.37))
        and not R.is_principal_irreducible(q, (0.4, 0.5))
        and not R.is_principal_irreducible(q, (0.8, 2.0 / 0.8))
        and not R.is_principal_irreducible(q, (1.6, 0.5 / 1.6))
        and R.is_principal_irreducible(q, (2.0 + 1e-6, 0.37))
    )
    report(5, worst < 1e-12 and kato_ok,
           f"displayed matrices reproduced entrywise (max dev {worst:.1e}); "
           f"torus Hermitian; reducibility boundary exact")


def test_c06_total_spectral_mass():
    worst = 0.0
    for q in (2, 3, 4):
        F = H.ScalarField(q)
        v = P.plancherel_trace(H.unit(F), 256)
        worst = max(worst, abs(v - 1.0))
    report(6, worst < 1e-10,
           f"trace of unity through the three-component decomposition, "
           f"N=256, q=2,3,4 (max dev {worst:.1e})")


def test_c07_exact_vs_spectral_traces():
    t0 = time.time()
    worst = 0.0
    for q in (2, 3):
        spec = P.simple_walk_spectral_traces(float(q), 20, 256)
        snaps = L.exact_distribution(L.simple_walk_spec(), 20, q,
                                     snapshots=list(range(21)))
        for n in range(21):
            worst = max(worst,
                        abs(spec[n] - snaps[n].p_value(W.IDENTITY, float(q))))
    elapsed = time.time() - t0
    report(7, worst < 1e-8 and elapsed < 120,
           f"spectral vs exact n-step return, n<=20, q=2,3, N=256 "
           f"(max dev {worst:.1e}, {elapsed:.1f}s)")


def test_c08_generating_series_depth40():
    t0 = time.time()
    worst = 0.0
    for q in (2, 3):
        F = H.ScalarField(q)
        qf = float(q)
        for t in ((0.05, 0.05),
                  (0.05 * np.exp(0.4j), 0.05 * np.exp(-1.1j))):
            tinv = (1 / t[0], 1 / t[1])
            v1, _ = P.f_series(H.unit(F), t, 40)
            c1 = 1.0 / (qf ** 3 * P.c_value(qf, t) * P.c_value(qf, tinv))
            worst = max(worst, abs(v1 - c1) / abs(c1))
            v0, _ = P.f_series(H.symmetrizer_one(F), t, 40)
            c0 = 1.0 / (float(H.w0_poincare(F)) * P.c_value(qf, tinv))
            worst = max(worst, abs(v0 - c0) / abs(c0))
    elapsed = time.time() - t0
    report(8, worst < 1e-6,
           f"depth-40 exact generating series vs closed forms at |t|=0.05, "
           f"q=2,3 (worst rel dev {worst:.1e}, {elapsed:.1f}s; symmetrizer "
           f"target carries the corrected normalization, see ledger)")


def test_c09_character_identities(field2, ball4):
    F = field2
    q = 2.0
    rng = random.Random(909)
    elems = list(ball4)
    worst = 0.0
    skipped = 0
    for _ in range(50):
        h = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 4)))
                            for _ in range(3)])
        th = (rng.uniform(0.15, 3.0), rng.uniform(-3.0, -0.15))
        t = (np.exp(1j * th[0]), np.exp(1j * th[1]))
        if abs(H.d_at(q, t)) < 1e-8:
            skipped += 1
            continue
        chi = R.character(R.principal_series(q, t), h)
        total = sum(H.f_value(h, s) for s in H.orbit_characters(t))
        worst = max(worst, abs(total - chi))
    for _ in range(50):
        h = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 4)))
                            for _ in range(2)])
        u = np.exp(1j * rng.uniform(0.05, 6.2))
        pts = [(1 / q, q ** 0.5 * u), (q ** -0.5 * u, q ** -0.5 / u),
               (q ** 0.5 / u, 1 / q)]
        if any(abs(H.d_at(q, t)) < 1e-8 for t in pts):
            skipped += 1
            continue
        total = sum(H.f_value(h, t) for t in pts)
        chi3 = R.character(R.induced_three_dim(q, u), h)
        worst = max(worst, abs(total - chi3))
        worst = max(worst, abs(H.f_value(h, (1 / q, 1 / q))
                               - R.character(R.sign_character(q), h)))
    report(9, worst < 1e-9,
           f"orbit-sum and boundary character identities on 100 random "
           f"points (worst dev {worst:.1e}, {skipped} singular points "
           f"skipped; boundary points re-derived, see ledger)")


def test_c10_spectral_closed_forms():
    worst = 0.0
    for q in (2.0, 3.0):
        sd = L.spectral_data(q)
        worst = max(worst, np.abs(
            np.array(sd.eigenvalues) - L.eigen_surface((0.0, 0.0), q)).max())
        mu = np.sort(L.induced_eigen_curve(0.0, q))
        expect = np.sort([sd.induced_eigenvalues[0], sd.induced_eigenvalues[0],
                          sd.induced_eigenvalues[1]])
        worst = max(worst, np.abs(mu - expect).max())
    ok = worst < 1e-12
    # quadratic decay rate by finite differences
    beta_dev = 0.0
    for q in (2.0, 3.0):
        sd = L.spectral_data(q)
        h = 1e-3
        l0 = L.eigen_surface((0.0, 0.0), q)[0]
        fd = (l0 - L.eigen_surface((h, h), q)[0]) / (l0 * 3 * h * h)
        beta_dev = max(beta_dev, abs(fd / sd.beta - 1))
    ok = ok and beta_dev < 1e-4
    # density expansion at small angle, with decay under halving
    err = lemma34_check((0.01, 0.013), 2)
    err_half = lemma34_check((0.005, 0.0065), 2)
    ok = ok and err < 0.05 and err_half <= 0.6 * err
    report(10, ok,
           f"closed-form spectra to {worst:.1e} (induced repeated eigenvalue "
           f"in corrected form, see ledger); quadratic rate via finite "
           f"differences to {beta_dev:.1e}; density expansion err {err:.3f} "
           f"-> {err_half:.3f} under halving")


def test_c11_eigenvalue_bounds():
    q = 2.0
    lam1 = L.spectral_data(q).spectral_radius
    thetas = np.linspace(-np.pi, np.pi, 50, endpoint=False)
    worst_interior = 0.0
    for t1 in thetas:
        for t2 in thetas:
            vals = np.abs(L.eigen_surface((t1, t2), q))
            assert vals.max() <= lam1 + 1e-12
            if max(abs(t1), abs(t2)) > 1e-8:  # off the lattice
                worst_interior = max(worst_interior, vals.max())
    strict = worst_interior < lam1
    curve_ok = True
    for q2 in (2.0, 3.0):
        lam = L.spectral_data(q2).spectral_radius
        for phi in np.linspace(-np.pi, np.pi, 200):
            if np.abs(L.induced_eigen_curve(phi, q2)).max() >= lam:
                curve_ok = False
    atom_ok = all(q3 ** -1.5 < L.spectral_data(q3).spectral_radius
                  for q3 in (2.0, 3.0, 4.0))
    report(11, strict and curve_ok and atom_ok,
           f"surface bound strict off the lattice (max interior "
           f"{worst_interior:.6f} < {lam1:.6f}); curve and atom bounds hold")


def _llt_ratios():
    ns = (100, 200, 400)
    # p_n(c, c) is the mass at e, divided by q^l(e) = 1
    masses = L.masses_at(L.simple_walk_spec(), W.IDENTITY, ns, 2)
    return {n: p / L.llt_estimate(W.IDENTITY, n, 2) for n, p in zip(ns, masses)}


def test_c12_local_limit_trend():
    t0 = time.time()
    r = _llt_ratios()
    elapsed = time.time() - t0
    trend_ok = abs(r[400] - 1) < abs(r[100] - 1) and r[100] < r[200] < r[400]
    report(12, trend_ok and elapsed < 60,
           f"return-probability ratios r(100)={r[100]:.4f}, "
           f"r(200)={r[200]:.4f}, r(400)={r[400]:.4f} rising toward 1 "
           f"({elapsed:.1f}s); absolute threshold tracked separately")


@pytest.mark.xfail(
    strict=True,
    reason="source defect: the correction is large and of order 1/n "
    "((1-r)n = 92, 162, 258 at n = 100, 200, 400, levelling off near 600 "
    "by n = 12800), so |r(400)-1| ~ 0.65 (ratio verified to approach 1: "
    "0.71 at n=1600, 0.91 at n=6400); see the decisions ledger",
)
def test_c12b_local_limit_absolute_threshold():
    r = _llt_ratios()
    print(f"criterion 12b FAIL - |r(400)-1| = {abs(r[400]-1):.4f}, "
          f"threshold 0.2 not attainable at n=400")
    assert abs(r[400] - 1) < 0.2


def _mc_comparison(seed=2024, trials=10 ** 6, n=10):
    emp = L.mc_simulate(n, trials, seed, 2)
    exact = L.exact_distribution(L.simple_walk_spec(), n, 2)
    worst_sigmas = 0.0
    checked = 0
    for w, m in exact.items():
        if m <= 1e-4:
            continue
        checked += 1
        sigma = (m * (1 - m) / trials) ** 0.5
        worst_sigmas = max(worst_sigmas, abs(emp.mass(w) - m) / sigma)
    tv = 0.5 * float(np.abs(emp.masses - exact.masses).sum())
    p = exact.masses
    expected_tv = 0.5 * float(
        np.sum(np.sqrt(2 * p * (1 - p) / (np.pi * trials)))
    )
    return checked, worst_sigmas, tv, expected_tv


def test_c13_monte_carlo_agreement():
    t0 = time.time()
    checked, worst_sigmas, tv, expected_tv = _mc_comparison()
    elapsed = time.time() - t0
    report(13, worst_sigmas <= 4.0 and tv < 1.5 * expected_tv,
           f"{checked} states with mass > 1e-4 within "
           f"{worst_sigmas:.2f} sigma; total variation {tv:.5f} vs analytic "
           f"expectation {expected_tv:.5f} ({elapsed:.1f}s, 1e6 trials; the "
           f"printed 0.003 bound sits below the expectation, see ledger)")


@pytest.mark.xfail(
    strict=True,
    reason="source defect: the expected total variation of a 1e6-trial "
    "empirical 10-step distribution is 0.0041 (analytic, confirmed over "
    "six seeds at 0.00362-0.00444 on the count-splitting stream), above the "
    "printed 0.003 bound; see the decisions ledger",
)
def test_c13b_monte_carlo_tv_verbatim():
    _, _, tv, expected_tv = _mc_comparison()
    print(f"criterion 13b FAIL - TV {tv:.5f} (expectation {expected_tv:.5f}) "
          f"vs printed bound 0.003")
    assert tv < 0.003


def test_c14_hand_value_three_routes():
    worst = 0.0
    for q in (2, 3):
        expect = 1 / (3 * float(q))
        d = L.exact_distribution(L.simple_walk_spec(), 2, q)
        worst = max(worst, abs(d.p_value(W.IDENTITY, float(q)) - expect))
        spec = P.simple_walk_spectral_traces(float(q), 2, 128)[2]
        worst = max(worst, abs(spec - expect))
        emp = L.mc_simulate(2, 200000, 5, q)
        sigma = (expect * (1 - expect) / 200000) ** 0.5
        assert abs(emp.mass(W.IDENTITY) - expect) < 4 * sigma
    report(14, worst < 1e-10,
           f"two-step return 1/(3q) by exact, spectral, and sampled routes, "
           f"q=2,3 (max dev {worst:.1e})")
