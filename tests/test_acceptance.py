"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Tolerances and time budgets are pinned here and nowhere else.
"""

import time
from collections import Counter
from fractions import Fraction as F

import reference

from pureoctic import binomial, groups, linalg, oracle, qforms
from pureoctic.splitting import SplittingField, witt_beta_rho

TOLERANCE = F(1, 20)          # 0.05 absolute frequency tolerance
PRIME_BOUND = 50_000
ABELIAN_BOUND = 10_000


def _report(number: int, passed: bool, detail: str, elapsed: float) -> None:
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {state} - {detail} [{elapsed:.2f}s]")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_classification_vector():
    t0 = time.time()
    vector = {F(9): "Pauli", F(25): "Pauli", F(36): "Pauli", F(16): "K8",
              F(2): "D16", F(-2): "QD16", F(3): "B32",
              F(4): "Reducible", F(-1): "Reducible", F(64): "Reducible"}
    mismatches = [(c, want, binomial.classify_octic(c).name)
                  for c, want in vector.items()
                  if binomial.classify_octic(c).name != want]
    elapsed = time.time() - t0
    _report(1, not mismatches and elapsed < 1.0,
            f"classification vector of 10 exact verdicts (budget 1s)"
            f"{'' if not mismatches else f' mismatches: {mismatches}'}",
            elapsed)


def test_criterion_2_oracle_consistency():
    t0 = time.time()
    models = oracle.stock_models()
    failures = []
    for c in (F(9), F(25), F(2), F(-2), F(3), F(16)):
        t_c = time.time()
        predicted = binomial.classify_octic(c).name
        cns = oracle.census(c, PRIME_BOUND)
        for name, model in models.items():
            if model is None:
                if reference.transitive_8pt_obstruction(name) is None:
                    failures.append((c, name, "missing obstruction"))
                continue
            verdict = oracle.consistent(cns, model, TOLERANCE)
            if verdict.passed != (name == predicted):
                failures.append((c, name, str(verdict)))
        if time.time() - t_c > 60:
            failures.append((c, "time", f"{time.time() - t_c:.1f}s > 60s"))
    _report(2, not failures,
            f"census below {PRIME_BOUND} for 6 values of c PASSes exactly the"
            f" predicted model at tolerance {TOLERANCE}"
            f"{'' if not failures else f' failures: {failures}'}",
            time.time() - t0)


def test_criterion_3_group_engine():
    t0 = time.time()
    P = groups.pauli_matrix_group()
    subs = P.subgroups()
    fp = groups.fingerprint(P)
    conventions = reference.subgroup_count_conventions(P)
    q8_count = sum(1 for H, _ in subs if groups._looks_like_q8(H))
    checks = {
        "order 16": P.order == 16,
        "order profile 1:1,2:7,4:8":
            P.element_orders() == Counter({1: 1, 2: 7, 4: 8}),
        "center C4": fp.center_type == "C4",
        "abelianization E8": fp.abelianization == "E8",
        "21 proper nontrivial": conventions["proper_nontrivial"] == 21,
        "15 normal": conventions["normal_proper_nontrivial"] == 15,
        "exactly one Q8": q8_count == 1,
        "no element of order 8": not fp.has_order8_element,
        "identify": groups.identify(P) == "Pauli",
        "criteria reject the other 13": all(
            all(groups.pauli_criteria(M)) == (name == "Pauli")
            for name, M in groups.order16_stock_models().items()),
    }
    elapsed = time.time() - t0
    bad = [k for k, ok in checks.items() if not ok]
    _report(3, not bad and elapsed < 5.0,
            f"Pauli matrix-group facts (budget 5s)"
            f"{'' if not bad else f' failing: {bad}'}", elapsed)


def test_criterion_4_splitting_fields():
    t0 = time.time()
    failures = []
    for k in (F(3), F(5), F(6), F(7)):
        t_k = time.time()
        field = SplittingField(k)
        G = field.galois_group()
        if len(field.galois_group()) != 16 or groups.identify(G) != "Pauli":
            failures.append((k, "galois group"))
        if not reference.defining_polynomial_check(field):
            failures.append((k, "product of roots"))
        rep = field.lattice_report()
        # the full correspondence: dim * |H| = 16 for every subgroup
        # (23 of them: 21 proper nontrivial + trivial + full)
        if len(rep.rows) != 23:
            failures.append((k, f"{len(rep.rows)} subgroups"))
        if any(row.degree * row.order != 16 for row in rep.rows):
            failures.append((k, "correspondence dims"))
        ir = field.i * field.r
        fix_ir = [s for s in field.galois_group() if field.apply(s, ir) == ir]
        H = groups.closure(fix_ir)
        if groups.identify(H) != "Q8":
            failures.append((k, "fixgroup of Q(sqrt(-2)) not Q8"))
        center = G.center()
        ff = field.fixed_field(center)
        vecs = [b.coeffs for b in ff.basis]
        if not (ff.degree == 4
                and linalg.in_span(vecs, field.i.coeffs)
                and linalg.in_span(vecs, field.v2.coeffs)):
            failures.append((k, "center fixed field is not Q(i, sqrt(k))"))
        by_label = {row.label: row for row in rep.rows if row.label}
        if by_label["Q(a)"].normal or by_label["Q(w*a)"].normal:
            failures.append((k, "Q(a)/Q(wa) fixgroups not non-normal"))
        normal_octics = [r for r in rep.rows if r.degree == 8 and r.normal]
        if len(normal_octics) != 1 or not normal_octics[0].label.startswith("Q(i, sqrt(2)"):
            failures.append((k, "L not the unique normal octic"))
        if time.time() - t_k > 30:
            failures.append((k, f"time {time.time() - t_k:.1f}s > 30s"))
    _report(4, not failures,
            "splitting fields for k in {3,5,6,7}: Pauli action, exact"
            " factorization, full correspondence, attested anchors"
            f"{'' if not failures else f' failures: {failures}'}",
            time.time() - t0)


def test_criterion_5_witt_machinery():
    t0 = time.time()
    failures = []
    for k in (F(3), F(5)):
        cert = witt_beta_rho(SplittingField(k))
        if not (cert.det_is_one and cert.congruence_is_identity):
            failures.append((k, "matrix identities"))
        if not (cert.factorization_holds and cert.beta_matches_matrix_diagonal):
            failures.append((k, "rho*beta factorization"))
        if not (cert.a_minus_abar_nonzero and cert.generates_E_over_L):
            failures.append((k, "sqrt(rho*beta) does not generate E over L"))
    elapsed = time.time() - t0
    _report(5, not failures and elapsed < 1.0,
            "exact Witt identities for k in {3,5} (budget 1s)"
            f"{'' if not failures else f' failures: {failures}'}", elapsed)


def test_criterion_6_quadratic_forms():
    import random
    t0 = time.time()
    failures = []
    rng = random.Random(2026)
    for _ in range(500):
        a = F(rng.randint(-50, 50) or 3, rng.randint(1, 40))
        b = F(rng.randint(-50, 50) or 5, rng.randint(1, 40))
        prod = 1
        for v in qforms.relevant_places(a, b):
            prod *= qforms.hilbert(a, b, v)
        if prod != 1:
            failures.append(("product formula", a, b))
    for a in range(-20, 21):
        for b in range(-20, 21):
            if a == 0 or b == 0:
                continue
            for p in (2, 3, 5, 7, 11, 13):
                want = qforms.hilbert(F(a), F(b), qforms.Place(p)) == 1
                if want != reference.local_solubility_search(a, b, p):
                    failures.append(("local solubility", a, b, p))
    if not qforms.witt_embeddable(F(2), F(3)):
        failures.append("witt(2,3)")
    if any(qforms.witt_embeddable(F(-1), b) for b in (F(2), F(3), F(5), F(7))):
        failures.append("witt(-1,.)")
    for k in (F(3), F(5)):
        if not qforms.pauli_embeddable(F(-1), k, F(-2)):
            failures.append(("pauli(-1,k,-2)", k))
        if qforms.pauli_embeddable(F(2), k, F(-2)):
            failures.append(("pauli(2,k,-2)", k))
    if not qforms.sl_search(F(2), F(3), F(-2)):
        failures.append("sl_search empty")
    elapsed = time.time() - t0
    _report(6, not failures and elapsed < 5.0,
            "Hilbert product formula, brute-force agreement on"
            " |a|,|b| <= 20 and p <= 13, embedding contrasts (budget 5s)"
            f"{'' if not failures else f' failures: {failures[:4]}'}", elapsed)


def test_criterion_7_abelian_signature():
    t0 = time.time()
    cns = oracle.census(F(16), ABELIAN_BOUND)
    nonuniform = [t for t, _ in cns.counts if len(set(t)) != 1]
    _report(7, not nonuniform,
            f"census(16, {ABELIAN_BOUND}) shows only uniform cycle types"
            f" (abelian K8 signature)"
            f"{'' if not nonuniform else f' offenders: {nonuniform}'}",
            time.time() - t0)
