"""Model fitting, EMMs, contrasts: checked against brute-force oracles."""

import csv
import io
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as spstats
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.special import betainc, betaincc

from oracles import (
    difference_of_differences_rows,
    pairwise_contrast_rows,
    reference_row,
    token_design_fit,
)
from nasalance.errors import DesignError, NumericError, RankDeficiencyError
from nasalance.pipeline import read_token_csv, tokens_to_csv
from nasalance.stats import (
    FitResult,
    TokenRecord,
    bonferroni,
    build_design,
    contrasts_to_csv,
    deviation_code,
    difference_of_differences_table,
    emm_to_csv,
    emmeans,
    fit_nasalance_model,
    ols_fit,
    pairwise_env_contrasts,
    student_t_p,
)


def make_token(system, environment, vowel, value, word="w", rep=0):
    return TokenRecord(
        source_id=f"{system}-{rep}", speaker="s1", system=system, word=word,
        vowel=vowel, environment=environment, t_mid_s=0.5, nasalance_pct=value,
    )


def balanced_tokens(systems, environments, vowels, reps, value_fn):
    records = []
    for s in systems:
        for e in environments:
            for v in vowels:
                for r in range(reps):
                    records.append(make_token(s, e, v, value_fn(s, e, v, r), rep=r))
    return records


# --- deviation coding ---------------------------------------------------


def test_deviation_code_two_levels():
    np.testing.assert_array_equal(deviation_code(["A", "B"]), [[1.0], [-1.0]])


def test_deviation_code_three_levels():
    np.testing.assert_array_equal(
        deviation_code(["A", "B", "C"]),
        [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
    )


def test_deviation_code_errors():
    with pytest.raises(DesignError, match="at least 2"):
        deviation_code(["A"])
    with pytest.raises(DesignError, match="duplicate"):
        deviation_code(["A", "A"])


# --- design construction ------------------------------------------------


def test_design_columns_2x2x2():
    records = balanced_tokens(["s1", "s2"], ["e1", "e2"], ["v1", "v2"], 1,
                              lambda s, e, v, r: 50.0)
    design = build_design(records)
    assert design.names == (
        "intercept", "system.s1", "environment.e1", "env.e1:sys.s1", "vowel.v1"
    )
    assert design.X.shape == (8, 5)
    # balanced: every deviation-coded column sums to zero
    np.testing.assert_allclose(design.X[:, 1:].sum(axis=0), 0.0, atol=1e-12)


def test_design_single_vowel_drops_control():
    records = balanced_tokens(["s1", "s2"], ["e1", "e2"], ["v1"], 1,
                              lambda s, e, v, r: 50.0)
    design = build_design(records)
    assert design.X.shape == (4, 4)
    assert "vowel" not in design.codings


def test_design_single_level_factor_rejected():
    records = balanced_tokens(["s1"], ["e1", "e2"], ["v1"], 2,
                              lambda s, e, v, r: 50.0)
    with pytest.raises(DesignError, match="single observed level"):
        build_design(records)


@st.composite
def unbalanced_records(draw, missing_cell=st.just(False)):
    """2-4 levels per factor (or a single vowel), every cell filled once plus
    at least one extra token, so the fit is full rank and unbalanced; with
    or without the level names relabeled, so the -1-coded last level varies.
    If missing_cell draws True, one system x environment cell has no token,
    which leaves the interaction rank deficient."""
    systems = [f"s{i}" for i in range(draw(st.integers(2, 4)))]
    envs = [f"e{i}" for i in range(draw(st.integers(2, 4)))]
    vowels = [f"v{i}" for i in range(draw(st.sampled_from([1, 2, 3, 4])))]
    cells = [(s, e, v) for s in systems for e in envs for v in vowels]
    if draw(missing_cell):
        gone = (draw(st.sampled_from(systems)), draw(st.sampled_from(envs)))
        cells = [cell for cell in cells if cell[:2] != gone]
    extra = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=30))
    label = {name: name for name in systems + envs + vowels}
    if draw(st.booleans()):
        for names in (systems, envs, vowels):
            label.update(zip(names, draw(st.permutations(names))))
    return [
        make_token(label[s], label[e], label[v], draw(st.floats(0.0, 100.0)), rep=i)
        for i, (s, e, v) in enumerate(draw(st.permutations(cells + extra)))
    ]


@settings(max_examples=60, deadline=None)
@given(unbalanced_records())
def test_design_and_emm_rows_bitwise_equal_per_cell_reference(records):
    design = build_design(records)
    # one row per (system, environment, vowel) cell, in order of its first token
    cells = Counter((r.system, r.environment, r.vowel) for r in records)
    reference = np.array([reference_row(design.codings, *cell) for cell in cells])
    assert np.array_equal(design.X, reference)
    assert design.X.tobytes() == reference.tobytes()  # tells -0.0 from 0.0 too
    assert design.counts.tolist() == list(cells.values())
    assert design.counts.sum() == len(records)
    fit = ols_fit(design.X, design.y, design.names, design.codings, design.counts,
                  design.within_ss)
    for row in emmeans(fit):
        x = reference_row(fit.codings, row.system, row.environment)
        assert row.emm == float(x @ fit.estimates)
        assert row.se == math.sqrt(max(float(x @ fit.covariance @ x), 0.0))


def assert_close(got, want, floor=0.0):
    """got within 1e-12 of want relative to want's largest magnitude, or within
    floor, whichever is wider."""
    got, want = np.asarray(got), np.asarray(want)
    bound = max(1e-12 * np.max(np.abs(want), initial=0.0), floor)
    assert np.max(np.abs(got - want), initial=0.0) <= bound, (got, want)


@settings(max_examples=80, deadline=None)
@given(unbalanced_records(missing_cell=st.booleans()))
def test_cell_fit_matches_per_token_oracle(records):
    try:
        want = token_design_fit(records)
    except NumericError as err:  # a missing cell: the same refusal, aliased columns and all
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            fit_nasalance_model(records)
        return
    fit = fit_nasalance_model(records)
    assert fit.names == want.names and fit.residual_df == want.residual_df
    assert_close(fit.estimates, want.estimates)
    # the per-token residuals carry rounding noise of up to the exact-fit
    # rule's SD, n eps max|y|; that noise, not the cell fit, bounds how close
    # the two residual variances can be when the tokens barely vary
    sd = len(records) * np.finfo(float).eps * max(r.nasalance_pct for r in records)
    floor = sd * (2.0 * math.sqrt(want.residual_variance) + sd)
    assert_close(fit.residual_variance, want.residual_variance, floor)
    design = build_design(records)
    xtx_inv = np.linalg.inv(design.X.T @ (design.counts[:, None] * design.X))
    assert_close(fit.covariance, want.covariance, floor * np.max(np.abs(xtx_inv)))


def test_token_record_validation():
    with pytest.raises(ValueError, match="outside"):
        make_token("s1", "e1", "v1", 130.0)
    with pytest.raises(ValueError, match="empty factor"):
        make_token("s1", "", "v1", 50.0)


def test_token_record_has_slots_and_still_checks():
    # analyze and stats hold one record per token: no per-record __dict__
    token = make_token("s1", "e1", "v1", 50.0)
    assert not hasattr(token, "__dict__")
    with pytest.raises(AttributeError):
        token.nasalance_pct = 60.0
    for bad in (-0.1, 100.1, math.nan):
        with pytest.raises(ValueError, match="outside"):
            make_token("s1", "e1", "v1", bad)
    for system, environment, vowel in (("", "e1", "v1"), ("s1", "e1", "")):
        with pytest.raises(ValueError, match="empty factor level"):
            make_token(system, environment, vowel, 50.0)


# --- OLS ------------------------------------------------------------------


def normal_equations_fit(X, y):
    """Brute-force oracle: solve X'X b = X'y directly."""
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    resid = y - X @ beta
    df = X.shape[0] - X.shape[1]
    sigma2 = float(resid @ resid) / df
    cov = sigma2 * np.linalg.inv(xtx)
    return beta, cov, sigma2


def test_ols_exactly_determined_system():
    # the augmented (duplicated-row) version of solving [[1,0],[1,1]] b = [1,3]
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([1.0, 3.0, 1.0, 3.0])
    fit = ols_fit(X, y)
    np.testing.assert_allclose(fit.estimates, [1.0, 2.0], atol=1e-12)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-24)


def test_ols_constant_response():
    X = np.ones((5, 1))
    y = np.full(5, 7.25)
    fit = ols_fit(X, y)
    assert fit.estimates[0] == pytest.approx(7.25, abs=1e-12)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-24)


def unbalanced_constant_tokens(value, n=500, seed=3):
    """n tokens drawn over 2 systems x 4 environments x 5 vowels, all at value."""
    rng = np.random.default_rng(seed)
    envs, vowels = ("nasal_both", "nasal_coda", "nasal_onset", "oral"), "ABCDE"
    return [make_token(("A", "B")[rng.integers(2)], envs[rng.integers(4)],
                       vowels[rng.integers(5)], value, rep=i) for i in range(n)]


def test_unbalanced_all_equal_tokens_are_an_exact_fit():
    # the QR leaves residuals of rounding noise (SD about 3 eps * 37.5), which
    # once read as residual variance 4.8e-28 and p = 0.0085 for
    # "A: nasal_both - nasal_coda"; below (max(n, p) eps max|y|)^2 it is zero
    fit = fit_nasalance_model(unbalanced_constant_tokens(37.5))
    assert fit.residual_variance == 0.0 and not fit.covariance.any()
    rows = [*pairwise_env_contrasts(fit, "A"), *pairwise_env_contrasts(fit, "B"),
            *difference_of_differences_table(fit)]
    assert len(rows) == 18
    for row in rows:
        assert abs(row.estimate) < 1e-12
        assert (row.se, row.t, row.p, row.p_adjusted) == (0.0, 0.0, 1.0, 1.0)
    assert all(row.se == 0.0 for row in emmeans(fit))


def test_one_token_off_the_exact_fit_keeps_its_residual_variance():
    # a single token 1e-6 away, the CSV's last digit, is real variance
    tokens = unbalanced_constant_tokens(37.5)
    tokens[0] = replace(tokens[0], nasalance_pct=37.500001)
    fit = fit_nasalance_model(tokens)
    assert fit.residual_variance > 1e-16
    assert all(row.se > 0 for row in emmeans(fit))


def test_read_and_fit_keep_no_object_per_token(tmp_path):
    # the fit reads each record once and keeps a cell index and a value per
    # token; a list of 20k records and a 20k-row design peaked at 12.6 MiB
    rng = np.random.default_rng(5)
    path = tmp_path / "tokens.csv"
    path.write_text(tokens_to_csv(
        make_token("AB"[c % 2], f"e{c // 2 % 4}", f"v{c // 8}",
                   round(float(rng.uniform(0.0, 100.0)), 6), rep=i)
        for i, c in enumerate(rng.integers(0, 40, 20_000))))
    tracemalloc.start()
    try:
        fit = fit_nasalance_model(read_token_csv(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.residual_df == 20_000 - 12
    assert peak < 4 * 2**20, peak


def test_ols_rejects_underdetermined():
    with pytest.raises(NumericError, match="more observations"):
        ols_fit(np.ones((2, 2)), np.ones(2))


def test_ols_rank_deficiency_names_columns():
    X = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
    with pytest.raises(RankDeficiencyError) as err:
        ols_fit(X, np.arange(10.0), names=("intercept", "a", "twice_a"))
    assert "twice_a" in err.value.columns or "a" in err.value.columns


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(101)
    X = np.column_stack([np.ones(50), rng.standard_normal((50, 3))])
    y = rng.standard_normal(50) * 5 + X @ np.array([2.0, 1.0, -3.0, 0.5])
    fit = ols_fit(X, y)
    beta, cov, sigma2 = normal_equations_fit(X, y)
    np.testing.assert_allclose(fit.estimates, beta, atol=1e-8)
    np.testing.assert_allclose(fit.covariance, cov, atol=1e-8)
    assert fit.residual_variance == pytest.approx(sigma2, abs=1e-8)


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(7)
    X = np.column_stack([np.ones(40), rng.standard_normal((40, 4))])
    y = rng.standard_normal(40)
    fit = ols_fit(X, y)
    resid = y - X @ fit.estimates
    assert np.max(np.abs(X.T @ resid)) < 1e-8


def test_intercept_is_grand_mean_when_balanced():
    rng = np.random.default_rng(3)
    records = balanced_tokens(
        ["s1", "s2"], ["e1", "e2", "e3"], ["v1", "v2"], 2,
        lambda s, e, v, r: float(rng.uniform(20, 80)),
    )
    fit = fit_nasalance_model(records)
    grand = np.mean([r.nasalance_pct for r in records])
    assert fit.estimates[0] == pytest.approx(grand, abs=1e-8)


def test_results_invariant_to_level_order():
    rng = np.random.default_rng(9)
    records = balanced_tokens(
        ["s1", "s2"], ["e1", "e2", "e3"], ["v1", "v2"], 2,
        lambda s, e, v, r: float(rng.uniform(20, 80)),
    )
    # new names that sort as s2 s1, e3 e1 e2, v2 v1
    label = {"s2": "sa", "s1": "sb", "e3": "ea", "e1": "eb", "e2": "ec",
             "v2": "va", "v1": "vb"}
    relabeled = [replace(r, system=label[r.system], environment=label[r.environment],
                         vowel=label[r.vowel]) for r in records]
    fit_a = fit_nasalance_model(records)
    fit_b = fit_nasalance_model(relabeled)
    emm_a, emm_b = emmeans(fit_a), emmeans(fit_b)
    for row in emm_a:
        other = emm_b.cell(label[row.system], label[row.environment])
        assert row.emm == pytest.approx(other.emm, abs=1e-8)
        assert row.se == pytest.approx(other.se, abs=1e-8)


# --- EMMs -----------------------------------------------------------------


def test_emm_balanced_equivalence_oracle():
    rng = np.random.default_rng(11)
    systems, envs, vowels = ["s1", "s2"], ["e1", "e2", "e3"], ["v1", "v2", "v3"]
    records = balanced_tokens(systems, envs, vowels, 2,
                              lambda s, e, v, r: float(rng.uniform(10, 90)))
    table = emmeans(fit_nasalance_model(records))
    for s in systems:
        for e in envs:
            cell_means = [
                np.mean([r.nasalance_pct for r in records
                         if (r.system, r.environment, r.vowel) == (s, e, v)])
                for v in vowels
            ]
            oracle = float(np.mean(cell_means))
            assert table.cell(s, e).emm == pytest.approx(oracle, abs=1e-8)


def test_emm_single_vowel_equals_cell_mean():
    rng = np.random.default_rng(12)
    records = balanced_tokens(["s1", "s2"], ["e1", "e2"], ["v1"], 3,
                              lambda s, e, v, r: float(rng.uniform(10, 90)))
    table = emmeans(fit_nasalance_model(records))
    for s in ("s1", "s2"):
        for e in ("e1", "e2"):
            oracle = np.mean([r.nasalance_pct for r in records
                              if (r.system, r.environment) == (s, e)])
            assert table.cell(s, e).emm == pytest.approx(oracle, abs=1e-8)


def test_emm_zero_residual_variance_gives_zero_se():
    # perfectly additive data, no noise
    records = balanced_tokens(
        ["s1", "s2"], ["e1", "e2"], ["v1", "v2"], 2,
        lambda s, e, v, r: 40.0 + (5 if s == "s2" else 0) + (10 if e == "e2" else 0),
    )
    table = emmeans(fit_nasalance_model(records))
    for row in table:
        assert row.se == pytest.approx(0.0, abs=1e-9)


def test_emm_unknown_level():
    records = balanced_tokens(["s1", "s2"], ["e1", "e2"], ["v1"], 2,
                              lambda s, e, v, r: 50.0)
    fit = fit_nasalance_model(records)
    with pytest.raises(ValueError, match="unknown system"):
        pairwise_env_contrasts(fit, "s9")


# --- contrasts --------------------------------------------------------------


def test_identical_emms_give_zero_estimate_p_one():
    rng = np.random.default_rng(13)
    noise = [float(rng.uniform(-5, 5)) for _ in range(12)]

    def value(s, e, v, r):
        # same distribution in both environments, cell for cell
        idx = (0 if s == "s1" else 1) * 6 + (0 if v == "v1" else 1) * 3 + r
        return 50.0 + noise[idx % 12]

    records = balanced_tokens(["s1", "s2"], ["e1", "e2"], ["v1", "v2"], 3, value)
    table = pairwise_env_contrasts(fit_nasalance_model(records), "s1")
    row = table[0]
    assert row.estimate == pytest.approx(0.0, abs=1e-10)
    assert row.p == 1.0
    assert row.p_adjusted == 1.0


def test_four_environments_give_six_contrasts():
    records = balanced_tokens(
        ["s1", "s2"], ["e1", "e2", "e3", "e4"], ["v1"], 2,
        lambda s, e, v, r: 40.0 + 3 * int(e[1]) + r,
    )
    table = pairwise_env_contrasts(fit_nasalance_model(records), "s1")
    assert len(table) == 6
    assert [row.p_adjusted for row in table] == [min(1.0, 6 * row.p) for row in table]


def test_pairwise_t_matches_hand_built_oracle():
    cells = {
        ("s1", "e1"): [40.0, 42.0, 44.0],
        ("s1", "e2"): [60.0, 58.0, 62.0],
        ("s2", "e1"): [45.0, 44.0, 46.0],
        ("s2", "e2"): [55.0, 57.0, 53.0],
    }
    records = [
        make_token(s, e, "v1", val, rep=i)
        for (s, e), vals in cells.items()
        for i, val in enumerate(vals)
    ]
    # oracle: hand-coded design (s1 -> +1, e1 -> +1), normal equations
    X, y = [], []
    for (s, e), vals in cells.items():
        cs = 1.0 if s == "s1" else -1.0
        ce = 1.0 if e == "e1" else -1.0
        for val in vals:
            X.append([1.0, cs, ce, cs * ce])
            y.append(val)
    X, y = np.array(X), np.array(y)
    beta, cov, _ = normal_equations_fit(X, y)
    d = np.array([0.0, 0.0, 2.0, 2.0])  # (s1,e1) minus (s1,e2)
    oracle_est = float(d @ beta)
    oracle_se = math.sqrt(float(d @ cov @ d))
    oracle_t = oracle_est / oracle_se
    oracle_p = 2.0 * float(spstats.t.sf(abs(oracle_t), len(y) - 4))

    table = pairwise_env_contrasts(fit_nasalance_model(records), "s1")
    row = table[0]
    assert row.description == "s1: e1 - e2"
    assert row.estimate == pytest.approx(oracle_est, abs=1e-6)
    assert row.se == pytest.approx(oracle_se, abs=1e-6)
    assert row.t == pytest.approx(oracle_t, abs=1e-6)
    assert row.p == pytest.approx(oracle_p, abs=1e-6)


def test_constant_offset_cancels_in_difference_of_differences():
    rng = np.random.default_rng(21)
    base = {}
    records = []
    for e in ("e1", "e2", "e3"):
        for v in ("v1", "v2"):
            for r in range(3):
                base[(e, v, r)] = 30.0 + 8 * int(e[1]) + float(rng.normal(0, 1.5))
    for (e, v, r), val in base.items():
        records.append(make_token("icspeech", e, v, val, rep=r))
        records.append(make_token("nosey", e, v, val + 18.0, rep=r))
    fit = fit_nasalance_model(records)
    table = difference_of_differences_table(fit)
    for row in table:
        assert abs(row.estimate) < 1e-8
        assert row.p_adjusted == 1.0
    # EMMs shift by exactly the injected offset
    emms = emmeans(fit)
    for e in ("e1", "e2", "e3"):
        delta = emms.cell("nosey", e).emm - emms.cell("icspeech", e).emm
        assert delta == pytest.approx(18.0, abs=1e-8)


def test_doubled_contrast_sign_convention():
    # second system (lexicographically later) doubles the first's contrasts
    rng = np.random.default_rng(22)
    records = []
    means = {"icspeech": {"e1": 45.0, "e2": 35.0},
             "nosey": {"e1": 55.0, "e2": 35.0}}  # contrasts: +10 and +20
    for s, env_means in means.items():
        for e, mu in env_means.items():
            for r in range(4):
                records.append(
                    make_token(s, e, "v1", mu + float(rng.normal(0, 1e-6)), rep=r)
                )
    fit = fit_nasalance_model(records)
    (row,) = difference_of_differences_table(fit)
    # estimate = (icspeech contrast) - (nosey contrast) = 10 - 20 = -10:
    # below zero, i.e. the larger contrast magnitude belongs to the second system
    assert row.estimate == pytest.approx(-10.0, abs=1e-3)
    assert row.description == "(e1 - e2): icspeech - nosey"


def test_dod_needs_exactly_two_systems():
    records = balanced_tokens(["s1", "s2", "s3"], ["e1", "e2"], ["v1"], 2,
                              lambda s, e, v, r: 40.0 + r)
    fit = fit_nasalance_model(records)
    with pytest.raises(DesignError, match="exactly 2 systems"):
        difference_of_differences_table(fit)


# --- bonferroni and student t ----------------------------------------------


def test_bonferroni_examples():
    assert bonferroni([0.01], 5) == [0.05]
    assert bonferroni([0.5], 3) == [1.0]
    assert bonferroni([0.0], 1000) == [0.0]
    with pytest.raises(ValueError, match="family size"):
        bonferroni([0.5], 0)
    with pytest.raises(ValueError, match="outside"):
        bonferroni([1.5], 2)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
       st.integers(min_value=1, max_value=50))
def test_bonferroni_properties(ps, m):
    adj = bonferroni(ps, m)
    assert all(a >= p for a, p in zip(adj, ps))  # never decreases
    order = np.argsort(ps)
    assert all(adj[order[i]] <= adj[order[i + 1]] for i in range(len(ps) - 1))


def quad_t_p(t, df):
    """Numeric-integration oracle for the two-sided t p-value."""
    const = math.gamma((df + 1) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))

    def pdf(x):
        return const * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    tail, _ = quad(pdf, abs(t), np.inf)
    return 2.0 * tail


def test_student_t_trivials():
    assert student_t_p(0.0, 10) == 1.0
    previous = 1.0
    for t in (1.0, 2.0, 5.0, 20.0, 100.0):
        p = student_t_p(t, 10)
        assert p < previous
        previous = p
    assert student_t_p(1e8, 10) < 1e-12
    with pytest.raises(ValueError, match="df"):
        student_t_p(1.0, 0)


def test_student_t_against_quadrature():
    assert student_t_p(2.0, 10) == pytest.approx(quad_t_p(2.0, 10), abs=1e-8)
    assert student_t_p(2.0, 10) == pytest.approx(0.0734, abs=5e-5)
    for t in (0.5, 1.0, 2.0, 3.0):
        for df in (1, 5, 10, 100):
            assert student_t_p(t, df) == pytest.approx(quad_t_p(t, df), abs=1e-8)


def betainc_t_p(t, df):
    """scipy's regularized incomplete beta at a well-conditioned argument.

    P(|T| >= t) = I_x(df/2, 1/2) with x = df/(df+t^2). At large df, x is so
    near 1 that rounding it moves I_x by about df * 1e-16 relative (2e-10 at
    df = 1e6); the complement 1 - I_{1-x}(1/2, df/2) is then taken at the
    small 1-x, as Boost's Student t does.
    """
    t2 = t * t
    if df > 2 * t2:
        return float(betaincc(0.5, df / 2, t2 / (df + t2)))
    return float(betainc(df / 2, 0.5, df / (df + t2)))


@pytest.mark.parametrize("df", [1, 2, 5, 30, 462, 120000, 1e6])
def test_student_t_matches_betainc_oracle(df):
    tiny = np.finfo(float).tiny  # below it a double has no 1e-12 relative precision
    for t in np.concatenate([np.linspace(0.0, 40.0, 401), [1e-12, 1e-6, 1.7320508]]):
        want = betainc_t_p(float(t), df)
        got = student_t_p(float(t), df)
        if want < tiny:
            assert got < tiny, (t, df)
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0), (t, df)
        assert student_t_p(-float(t), df) == got


def test_ols_matches_scipy_triangular_solve_bitwise():
    rng = np.random.default_rng(21)
    for trial in range(60):
        n, p = int(rng.integers(12, 400)), int(rng.integers(2, 16))
        X = rng.normal(size=(n, p))
        if trial % 2:  # deviation-coded columns, as build_design makes
            X = rng.choice([-1.0, 0.0, 1.0], size=(n, p))
            X[:, 0] = 1.0
        y = 50.0 + 10.0 * rng.normal(size=n)
        q, r = np.linalg.qr(X, mode="reduced")
        if np.abs(np.diag(r)).min() < 1e-8:
            continue
        fit = ols_fit(X, y)
        np.testing.assert_array_equal(fit.estimates, solve_triangular(r, q.T @ y))
        r_inv = solve_triangular(r, np.eye(p))
        cov = fit.residual_variance * (r_inv @ r_inv.T)
        np.testing.assert_array_equal(fit.covariance, (cov + cov.T) / 2.0)


# --- CSV emitters ------------------------------------------------------------


def test_csv_emitters():
    records = balanced_tokens(["s1", "s2"], ["e1", "e2"], ["v1"], 3,
                              lambda s, e, v, r: 40.0 + 5 * int(e[1]) + r)
    fit = fit_nasalance_model(records)
    emms = emmeans(fit)
    text = "".join(emm_to_csv(emms))
    assert text.startswith("system,environment,emm,se\n")
    assert len(text.strip().split("\n")) == 5

    table = pairwise_env_contrasts(fit, "s1")
    dod = difference_of_differences_table(fit)
    out = "".join(contrasts_to_csv(table, dod))
    lines = out.strip().split("\n")
    assert lines[0] == "contrast,estimate,se,t,df,p,p_adj"
    assert len(lines) == 1 + len(table) + len(dod)
    # plain labels are written unquoted, byte for byte as before
    row = table[0]
    assert lines[1] == (
        f"s1: e1 - e2,{row.estimate:.9g},{row.se:.9g},{row.t:.9g},{row.df},"
        f"{row.p:.9g},{row.p_adjusted:.9g}")
    cell = emms.cell("s1", "e1")
    assert text.split("\n")[1] == f"s1,e1,{cell.emm:.9g},{cell.se:.9g}"


# printable labels, with the characters CSV must quote drawn often
labels = st.text(
    st.sampled_from([",", '"', " ", "-", ":"]) | st.characters(
        min_codepoint=32, blacklist_categories=("Cc", "Cs")),
    min_size=1, max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(systems=st.lists(labels, min_size=2, max_size=2, unique=True),
       environments=st.lists(labels, min_size=2, max_size=3, unique=True))
def test_csv_rows_keep_header_width_for_any_label(systems, environments):
    records = balanced_tokens(systems, environments, ["v1"], 2,
                              lambda s, e, v, r: 40.0 + 3 * environments.index(e) + r)
    fit = fit_nasalance_model(records)
    emms = emmeans(fit)
    tables = [pairwise_env_contrasts(fit, s) for s in fit.codings["system"][0]]
    tables.append(difference_of_differences_table(fit))

    emm_rows = list(csv.reader(io.StringIO("".join(emm_to_csv(emms)))))
    assert all(len(row) == 4 for row in emm_rows)
    assert [tuple(row[:2]) for row in emm_rows[1:]] == [
        (r.system, r.environment) for r in emms]
    contrast_rows = list(csv.reader(io.StringIO("".join(contrasts_to_csv(*tables)))))
    assert all(len(row) == 7 for row in contrast_rows)
    assert [row[0] for row in contrast_rows[1:]] == [
        r.description for t in tables for r in t]


# --- hand-built fits ---------------------------------------------------------


def zero_covariance_fit():
    """A 2-system x 3-environment fit with zero covariance: every contrast has
    zero SE. Its estimates make one difference of differences 2e-12 away from
    zero and give pairwise estimates of both signs."""
    codings = {
        "system": (("s1", "s2"), deviation_code(["s1", "s2"])),
        "environment": (("e1", "e2", "e3"), deviation_code(["e1", "e2", "e3"])),
    }
    names = ("intercept", "system.s1", "environment.e1", "environment.e2",
             "env.e1:sys.s1", "env.e2:sys.s1")
    estimates = np.array([50.0, 2.0, -3.0, 4.0, 1.0, 1.0 + 1e-12])
    return FitResult(names=names, estimates=estimates, covariance=np.zeros((6, 6)),
                     residual_variance=0.0, residual_df=10, codings=codings)


def test_zero_se_rows_are_infinite_or_exactly_null():
    fit = zero_covariance_fit()
    pairwise = pairwise_env_contrasts(fit, "s1")
    dod = difference_of_differences_table(fit)
    rows = [*pairwise, *dod]
    lines = "".join(contrasts_to_csv(pairwise, dod)).splitlines()[1:]
    assert len(lines) == len(rows) == 6
    signs = set()
    for row, line in zip(rows, lines):
        assert row.se == 0.0 and row.df == 10
        if abs(row.estimate) <= 1e-10:
            assert (row.t, row.p, row.p_adjusted) == (0.0, 1.0, 1.0)
            tail = "0,0,10,1,1"
            signs.add(0)
        else:
            assert row.t == math.copysign(math.inf, row.estimate)
            assert (row.p, row.p_adjusted) == (0.0, 0.0)
            tail = f"0,{row.t:g},10,0,0"
            signs.add(int(math.copysign(1, row.estimate)))
        assert line == f"{row.description},{row.estimate:.9g},{tail}"
    assert signs == {-1, 0, 1}
    # the near-zero difference of differences is not rounded to zero
    assert dod[0].estimate != 0.0


def seeded_fit(n_environments, n_vowels, seed):
    rng = np.random.default_rng(seed)
    environments = [f"e{i}" for i in range(n_environments)]
    vowels = [f"v{i}" for i in range(n_vowels)]
    return fit_nasalance_model(balanced_tokens(
        ["s1", "s2"], environments, vowels, 3,
        lambda s, e, v, r: float(np.round(rng.uniform(5, 95), 6))))


def labelled_fit():
    systems, environments = ["sys, one", "sys two"], ["env, a", 'env "b"', " env c "]
    return fit_nasalance_model(balanced_tokens(
        systems, environments, ["v1", "v2"], 2,
        lambda s, e, v, r: 30.0 + 7 * environments.index(e) + 3 * r + (s == "sys two")))


def all_equal_fit():
    return fit_nasalance_model(balanced_tokens(
        ["s1", "s2"], ["e1", "e2", "e3"], ["v1", "v2"], 2, lambda s, e, v, r: 42.0))


def hex_row(fields):
    description, estimate, se, t, df, p, p_adjusted = fields
    return (description, *map(float.hex, (estimate, se, t)), df,
            *map(float.hex, (p, p_adjusted)))


@pytest.mark.parametrize("make_fit", [
    *(pytest.param(lambda k=k, v=v: seeded_fit(k, v, seed=10 * k + v), id=f"{k}env-{v}vowel")
      for k in range(2, 6) for v in range(1, 4)),
    pytest.param(labelled_fit, id="labels"),
    pytest.param(all_equal_fit, id="all-equal"),
    pytest.param(zero_covariance_fit, id="zero-covariance"),
])
@pytest.mark.parametrize("family_size", [None, 7])
def test_contrast_rows_equal_the_per_row_oracle_bit_for_bit(make_fit, family_size):
    fit = make_fit()
    got, want = [], []
    for system in fit.codings["system"][0]:
        got += pairwise_env_contrasts(fit, system, family_size)
        want += pairwise_contrast_rows(fit, system, family_size)
    got += difference_of_differences_table(fit, family_size)
    want += difference_of_differences_rows(fit, family_size)
    assert [hex_row(astuple(row)) for row in got] == [hex_row(row) for row in want]


def test_fit_without_coding_tables_is_refused():
    rng = np.random.default_rng(5)
    fit = ols_fit(np.column_stack([np.ones(8), rng.standard_normal(8)]),
                  rng.standard_normal(8))
    message = "fit carries no system/environment coding tables"
    with pytest.raises(ValueError, match=message):
        emmeans(fit)
    with pytest.raises(ValueError, match=message):
        pairwise_env_contrasts(fit, "s1")
    with pytest.raises(ValueError, match=message):
        difference_of_differences_table(fit)
