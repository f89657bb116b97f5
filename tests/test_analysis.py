import time
from fractions import Fraction

import pytest

from amcc.analysis import (
    avn_certificate,
    classify,
    contextual_fraction,
    incidence_matrix,
    is_strongly_contextual,
    restriction_table,
)
from amcc.catalog import asymmetric_scc_model, ghz_model, pr_box, three_way_box
from amcc.construct import parity_system, parity_to_possibilistic
from amcc.empirical import (
    EmpiricalModel,
    deterministic_model,
    from_global_distribution,
    lift_uniform,
    make_model,
    mix,
    possibilistic_collapse,
)
from amcc.errors import SignalingInput, TooLarge
from amcc.scenario import bell_scenario, make_scenario

from _generators import cycle_scenario, uniform_model
from _oracles import chsh_noisy_cf

F = Fraction
H = F(1, 2)
Q = F(1, 4)
S22 = bell_scenario(2, 2)
S32 = bell_scenario(3, 2)


def test_incidence_matrix_shapes():
    inc3 = incidence_matrix(S32)
    assert (len(inc3), len(inc3[0])) == (64, 64)
    inc2 = incidence_matrix(S22)
    assert (len(inc2), len(inc2[0])) == (16, 16)


def test_incidence_matrix_single_context_is_identity():
    s = make_scenario(["A"], [["A"]])
    inc = incidence_matrix(s)
    assert inc == ((1, 0), (0, 1))


def test_incidence_matrix_column_sums_equal_context_count():
    inc = incidence_matrix(S32)
    for g in range(len(inc[0])):
        assert sum(row[g] for row in inc) == 8


def test_incidence_matrix_guard():
    labels = [f"Y{k}" for k in range(26)]  # bell_scenario refuses 26 observables itself
    s = make_scenario(labels, [labels[:13], labels[13:]])
    with pytest.raises(TooLarge):
        incidence_matrix(s)


def test_cf_lp_guard_fires_before_any_table():
    # 60 rows x 2**15 global assignments is about 2M LP entries; bell-5-2,
    # at exactly LP_ENTRY_LIMIT, is still solved (see NOISY_LIFT_CF below).
    model = uniform_model(cycle_scenario(15))
    with pytest.raises(TooLarge, match="LP guard"):
        restriction_table(model.scenario)
    with pytest.raises(TooLarge, match="LP guard"):
        contextual_fraction(model)


def test_is_contextual_rejects_signaling_input():
    # make_model rejects this table, so build the dataclass directly.
    rows = [
        (1, 0, 0, 0),
        (0, 0, H, H),
        (H, 0, H, 0),
        (H, 0, 0, H),
    ]
    model = EmpiricalModel(S22, tuple(tuple(F(x) for x in row) for row in rows))
    with pytest.raises(SignalingInput):
        contextual_fraction(model)
    with pytest.raises(SignalingInput):
        classify(model)


def test_contextual_fraction_extremes():
    assert contextual_fraction(pr_box(1, 1, 1)) == 1
    assert contextual_fraction(deterministic_model(S22, (0, 0, 0, 0))) == 0


def test_contextual_fraction_even_mixture_is_half():
    # Upper bound 1/2 comes from the explicit decomposition used to build the
    # mixture; the LP provides the matching lower bound.
    mixed = mix(
        [pr_box(0, 0, 0), deterministic_model(S22, (0, 0, 0, 0))], [H, H]
    )
    assert contextual_fraction(mixed) == H


def test_strong_contextuality_scan():
    assert is_strongly_contextual(pr_box(0, 0, 0)) == (True, None)
    assert is_strongly_contextual(asymmetric_scc_model()) == (True, None)
    uniform = make_model(S22, [(Q, Q, Q, Q)] * 4)
    assert is_strongly_contextual(uniform) == (False, (0, 0, 0, 0))
    # The possibilistic form is accepted directly.
    assert is_strongly_contextual(possibilistic_collapse(pr_box(0, 0, 0)))[0]


def test_avn_certificate_pr_box():
    ok, cert = avn_certificate(pr_box(0, 0, 0))
    assert ok and len(cert.entries) == 16
    # Assignment (0,0,0,0) restricts to (0,0) everywhere; the first zero is
    # in the anticorrelated context {X1p, X2p}.
    assert cert.entries[0] == (3, 0)
    for g, (c, sec) in enumerate(cert.entries):
        assert pr_box(0, 0, 0).tables[c][sec] == 0


def test_avn_certificate_ghz_size():
    ok, cert = avn_certificate(ghz_model())
    assert ok and len(cert.entries) == 64


def test_avn_certificate_fails_on_noncontextual_model():
    assert avn_certificate(deterministic_model(S22, (0, 0, 0, 0))) == (False, (0, 0, 0, 0))


def test_classify_catalog_reports():
    pr = classify(pr_box(0, 0, 0))
    assert (pr.cf, pr.strongly_contextual, pr.maximal_marginal, pr.amcc) == (
        F(1),
        True,
        True,
        True,
    )
    table1 = classify(asymmetric_scc_model())
    assert (table1.cf, table1.strongly_contextual, table1.maximal_marginal, table1.amcc) == (
        F(1),
        True,
        False,
        False,
    )
    ghz = classify(ghz_model())
    assert ghz.amcc and ghz.cf == 1
    box = classify(three_way_box())
    assert box.amcc


def test_classify_report_invariants_and_witnesses():
    report = classify(mix([pr_box(0, 0, 0), deterministic_model(S22, (0, 0, 0, 0))], [H, H]))
    assert report.cf + report.ncf == 1
    assert report.cf == H
    assert not report.strongly_contextual
    part = report.witness["noncontextual_part"]
    assert sum(Fraction(w) for w in part.values()) == H
    payload = report.to_dict()
    assert payload["cf"] == "1/2" and payload["ncf"] == "1/2"


def test_classify_noncontextual_product_model():
    report = classify(deterministic_model(S22, (1, 1, 0, 0)))
    assert report.cf == 0 and not report.amcc
    assert report.witness["noncontextual_part"] == {"1100": "1"}


def test_classify_avn_witness_shape():
    report = classify(pr_box(0, 0, 0))
    avn = report.witness["avn"]
    assert len(avn) == 16
    assert avn[0] == {"assignment": "0000", "context": ["X1p", "X2p"], "section": "00"}
    assert "avn" not in report.to_dict(include_avn=False)["witness"]


def test_classify_global_lift_of_distribution_is_noncontextual():
    weights = {(0, 0, 0, 0): F(1, 3), (1, 0, 1, 1): F(2, 3)}
    model = from_global_distribution(S22, weights)
    report = classify(model)
    assert report.cf == 0
    assert report.witness["noncontextual_part"] == {"0000": "1/3", "1011": "2/3"}


def noisy_one_odd_lift(n_parties, lam):
    """The uniform lift of the parity system with only context 0 odd, mixed with white noise."""
    s = bell_scenario(n_parties, 2)
    lift = lift_uniform(parity_to_possibilistic(parity_system(s, (1,) + (0,) * (s.n_contexts - 1))))
    return mix([lift, uniform_model(s)], [1 - lam, lam])


def test_noisy_chsh_matches_closed_form():
    cfs = [contextual_fraction(noisy_one_odd_lift(2, F(k, 16))) for k in range(17)]
    assert cfs == [chsh_noisy_cf(F(k, 16)) for k in range(17)]


#: CF of noisy one-odd-context lifts that are cheap only on flip orbits; the
#: full LP took about a minute on bell-4-2 and more than 9 minutes on bell-5-2.
NOISY_LIFT_CF = {
    4: ((F(1, 8), F(45, 56)), (F(1, 4), F(17, 28)), (F(1, 2), F(3, 14))),
    5: ((F(1, 2), F(7, 30)),),
}


@pytest.mark.parametrize(
    "n_parties, lam, expected",
    [(n, lam, cf) for n, points in NOISY_LIFT_CF.items() for lam, cf in points],
)
def test_noisy_parity_lift_cf_is_fast(n_parties, lam, expected):
    model = noisy_one_odd_lift(n_parties, lam)
    start = time.perf_counter()
    cf = contextual_fraction(model)
    assert cf == expected
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("n_parties", sorted(NOISY_LIFT_CF))
def test_noisy_parity_lift_cf_does_not_increase_with_noise(n_parties):
    lams = [F(0)] + [lam for lam, _ in NOISY_LIFT_CF[n_parties]] + [F(1)]
    models = [noisy_one_odd_lift(n_parties, lam) for lam in lams]
    start = time.perf_counter()
    cfs = [contextual_fraction(model) for model in models]
    assert time.perf_counter() - start < 5
    assert cfs[0] == 1 and cfs[-1] == 0
    assert all(a >= b for a, b in zip(cfs, cfs[1:]))
