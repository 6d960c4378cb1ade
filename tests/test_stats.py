"""Correlation, design assembly, OLS, and predicted curves against oracles."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowspan.stats import (
    AnalysisTable,
    RankDeficiencyError,
    RegressionSpec,
    _t_sf,
    build_design,
    fit_model,
    ols_fit,
    pearson_matrix,
    predicted_curve,
    star_label,
)

mp.mp.dps = 50


def pearson_r(x, y):
    """r and its p-value for two columns, read from pearson_matrix."""
    matrix = pearson_matrix(AnalysisTable({"x": x, "y": y}), ("x", "y"))
    return float(matrix.r[0, 1]), float(matrix.p[0, 1])


def mp_pearson(x, y):
    """Oracle: two-pass product-moment correlation at 50 digits."""
    xs = [mp.mpf(float(v)) for v in x]
    ys = [mp.mpf(float(v)) for v in y]
    mx = mp.fsum(xs) / len(xs)
    my = mp.fsum(ys) / len(ys)
    num = mp.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    den = mp.sqrt(
        mp.fsum((a - mx) ** 2 for a in xs) * mp.fsum((b - my) ** 2 for b in ys)
    )
    return float(num / den)


def mp_ols(x, y):
    """Oracle: normal equations solved at 50 digits."""
    xm = mp.matrix([[mp.mpf(float(v)) for v in row] for row in x])
    ym = mp.matrix([mp.mpf(float(v)) for v in y])
    beta = mp.lu_solve(xm.T * xm, xm.T * ym)
    return np.array([float(b) for b in beta])


# ---------------------------------------------------------------- stars

def test_star_thresholds_exact():
    assert star_label(0.0009) == "***"
    assert star_label(0.001) == "**"
    assert star_label(0.049) == "**"
    assert star_label(0.05) == "*"
    assert star_label(0.099) == "*"
    assert star_label(0.1) == ""
    assert star_label(0.9) == ""


# ---------------------------------------------------------------- table

def test_listwise_deletion_drops_rows_with_any_gap():
    table = AnalysisTable(
        {
            "a": [1.0, 2.0, np.nan, 4.0],
            "b": [1.0, np.nan, 3.0, 4.0],
            "c": [1.0, 2.0, 3.0, 4.0],
        }
    )
    sub = table.listwise(("a", "b"))
    assert sub.n == 2
    np.testing.assert_array_equal(sub.column("a"), [1.0, 4.0])
    full = table.listwise(("c",))
    assert full.n == 4


def test_unknown_column_is_error():
    table = AnalysisTable({"a": [1.0, 2.0]})
    with pytest.raises(KeyError, match="missing"):
        table.column("missing")


# ---------------------------------------------------------------- pearson

def test_pearson_matches_high_precision_oracle():
    rng = np.random.default_rng(12)
    x = rng.normal(size=50)
    y = 0.6 * x + rng.normal(size=50)
    z = rng.normal(size=50)
    table = AnalysisTable({"x": x, "y": y, "z": z})
    matrix = pearson_matrix(table, ("x", "y", "z"))
    assert matrix.df == 48
    for i, a in enumerate((x, y, z)):
        for j, b in enumerate((x, y, z)):
            assert matrix.r[i, j] == pytest.approx(mp_pearson(a, b), rel=1e-12)


def test_pearson_p_value_matches_t_transform():
    from scipy.stats import t as student_t

    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    y = 0.5 * x + rng.normal(size=40)
    r, p = pearson_r(x, y)
    df = 38
    t_stat = abs(r) * np.sqrt(df / (1 - r * r))
    assert p == pytest.approx(2 * student_t.sf(t_stat, df), rel=1e-12)


T_SF_DF = [1, 2, 3, 10, 100, 4998, 9990, 159984, 10**6]
T_SF_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]


def t_sf_inputs(df):
    """Fixed points, draws from the distribution itself, and |t| up to 40."""
    rng = np.random.default_rng(df)
    return np.concatenate(
        (
            [1e-300, 1e-8, 0.5, 1.0, 1.96, 40.0, 1e300, -3.0, -1e-8],
            np.abs(rng.standard_t(df, size=60)),
            rng.uniform(-40.0, 40.0, size=30),
        )
    )


def mp_t_sf(t, df):
    """P(T > t) at 50 digits: ½ I_x(df/2, ½), x = df / (df + t²)."""
    with mp.workdps(50):
        t, df = mp.mpf(t), mp.mpf(df)
        half_tail = mp.betainc(df / 2, 0.5, 0, df / (df + t * t), regularized=True) / 2
        return half_tail if t > 0 else 1 - half_tail


@pytest.mark.parametrize("df", T_SF_DF)
def test_t_survival_is_within_1e_10_of_a_50_digit_oracle(df):
    """The stated tolerance of the in-house t tail, wherever p >= 1e-290."""
    x = t_sf_inputs(df)
    tails = _t_sf(x, df)
    checked = 0
    for t, tail in zip(x.tolist(), tails.tolist()):
        exact = mp_t_sf(t, df)
        if exact >= 1e-290:
            assert abs(tail - exact) <= 1e-10 * exact, t
            checked += 1
    assert checked >= 80
    for i in range(9):  # a scalar gives the array's value
        assert _t_sf(x[i], df) == tails[i]


@pytest.mark.parametrize("df", T_SF_DF)
def test_t_survival_is_within_1e_8_of_scipy_stats(df):
    """scipy.stats.t.sf itself is about 3e-9 off at df = 1, t = 1e-8."""
    from scipy.stats import t as student_t

    x = np.concatenate((t_sf_inputs(df), np.random.default_rng(df).normal(scale=30.0, size=50)))
    np.testing.assert_allclose(_t_sf(x, df), student_t.sf(x, df), rtol=1e-8, atol=1e-300)
    special = np.array(T_SF_SPECIAL)
    np.testing.assert_array_equal(_t_sf(special, df), student_t.sf(special, df))
    for value in T_SF_SPECIAL:
        np.testing.assert_array_equal(_t_sf(value, df), student_t.sf(value, df))


def test_pearson_perfect_correlation_has_zero_p():
    x = np.arange(10.0)
    r, p = pearson_r(x, 3.0 * x + 1.0)
    assert r == pytest.approx(1.0, rel=1e-15)
    assert p == 0.0
    r_neg, _ = pearson_r(x, -2.0 * x)
    assert r_neg == pytest.approx(-1.0, rel=1e-15)


def test_pearson_zero_variance_names_column():
    table = AnalysisTable({"x": [1.0, 2.0, 3.0], "flat": [5.0, 5.0, 5.0]})
    with pytest.raises(ValueError, match="flat"):
        pearson_matrix(table, ("x", "flat"))


def test_pearson_applies_listwise_deletion():
    table = AnalysisTable(
        {"x": [1.0, 2.0, 3.0, np.nan, 5.0], "y": [2.0, 4.1, 5.9, 8.0, np.nan]}
    )
    matrix = pearson_matrix(table, ("x", "y"))
    assert matrix.df == 1  # three complete rows


@settings(max_examples=40)
@given(
    st.floats(0.1, 10),
    st.floats(-5, 5),
    st.floats(0.1, 10),
    st.floats(-5, 5),
)
def test_pearson_affine_invariance(a, b, c, d):
    rng = np.random.default_rng(7)
    x = rng.normal(size=30)
    y = 0.4 * x + rng.normal(size=30)
    base, _ = pearson_r(x, y)
    scaled, _ = pearson_r(a * x + b, c * y + d)
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------- design

def full_table(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return AnalysisTable(
        {
            "y": rng.normal(size=n),
            "c1": rng.normal(size=n),
            "c2": rng.normal(size=n),
            "c3": rng.normal(size=n),
            "p1": rng.normal(size=n),
            "p2": rng.normal(size=n),
            "p3": rng.normal(size=n),
            "m": rng.normal(size=n),
        }
    )


def test_three_predictor_moderated_design_has_17_columns_in_order():
    spec = RegressionSpec(
        outcome="y",
        predictors=("p1", "p2", "p3"),
        controls=("c1", "c2", "c3"),
        moderator="m",
    )
    design = build_design(spec, full_table())
    assert design.matrix.shape[1] == 17
    assert design.names == (
        "const",
        "c1",
        "c2",
        "c3",
        "p1",
        "p1^2",
        "p2",
        "p2^2",
        "p3",
        "p3^2",
        "m",
        "p1:m",
        "p1^2:m",
        "p2:m",
        "p2^2:m",
        "p3:m",
        "p3^2:m",
    )


def test_design_products_are_elementwise():
    table = AnalysisTable(
        {"y": [1.0, 2.0, 3.0], "x": [1.0, 2.0, 3.0], "z": [2.0, 0.5, -1.0]}
    )
    spec = RegressionSpec(outcome="y", predictors=("x",), moderator="z")
    design = build_design(spec, table)
    by_name = dict(zip(design.names, design.matrix.T))
    np.testing.assert_allclose(by_name["x^2"], [1.0, 4.0, 9.0])
    np.testing.assert_allclose(by_name["x:z"], [2.0, 1.0, -3.0])
    np.testing.assert_allclose(by_name["x^2:z"], [2.0, 2.0, -9.0])


def test_mean_centering_applies_before_squares():
    table = AnalysisTable({"y": [0.0, 1.0, 2.0, 5.0], "x": [1.0, 2.0, 3.0, 6.0]})
    spec = RegressionSpec(outcome="y", predictors=("x",), centering="mean")
    design = build_design(spec, table)
    by_name = dict(zip(design.names, design.matrix.T))
    np.testing.assert_allclose(by_name["x"], [-2.0, -1.0, 0.0, 3.0])
    np.testing.assert_allclose(by_name["x^2"], [4.0, 1.0, 0.0, 9.0])


def test_design_keeps_the_sample_sd_of_each_raw_base_column():
    """Moderator levels are read off these: mean ± 1 SD over the rows fitted."""
    table = AnalysisTable({"y": [0.0, 1.0, 2.0, 5.0], "x": [1.0, 2.0, 3.0, 6.0], "z": [2.0, 2.0, 4.0, 4.0]})
    spec = RegressionSpec(outcome="y", predictors=("x",), moderator="z", centering="mean")
    design = build_design(spec, table)
    assert design.base_sds == pytest.approx({"x": math.sqrt(14 / 3), "z": math.sqrt(4 / 3)}, rel=1e-15)


def test_a_one_row_design_has_undefined_sds_and_raises_no_warning():
    """A fit refuses so few rows; the design must not print numpy's warning
    on the way, since a failed stage writes one line to stderr."""
    table = AnalysisTable({"y": [1.0], "x": [2.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        design = build_design(RegressionSpec(outcome="y", predictors=("x",)), table)
    assert math.isnan(design.base_sds["x"])


def test_unknown_design_column_is_error():
    spec = RegressionSpec(outcome="y", predictors=("absent",))
    with pytest.raises(KeyError, match="absent"):
        build_design(spec, full_table())


def test_duplicate_roles_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        RegressionSpec(outcome="y", predictors=("x",), controls=("x",))


def test_missing_values_rejected_before_design():
    table = AnalysisTable({"y": [1.0, np.nan, 3.0], "x": [1.0, 2.0, 3.0]})
    spec = RegressionSpec(outcome="y", predictors=("x",))
    with pytest.raises(ValueError, match="listwise"):
        build_design(spec, table)


# ---------------------------------------------------------------- ols

def test_noiseless_linear_recovered_exactly():
    rng = np.random.default_rng(5)
    x = rng.normal(size=200)
    z = rng.normal(size=200)
    y = 1.5 + 2.0 * x - 3.0 * z
    table = AnalysisTable({"y": y, "x": x, "z": z})
    spec = RegressionSpec(outcome="y", predictors=("x",), controls=("z",))
    result = fit_model(spec, table)
    # y is linear, so the squared term must vanish
    assert result.term("const").coefficient == pytest.approx(1.5, rel=1e-8)
    assert result.term("x").coefficient == pytest.approx(2.0, rel=1e-8)
    assert result.term("z").coefficient == pytest.approx(-3.0, rel=1e-8)
    assert result.term("x^2").coefficient == pytest.approx(0.0, abs=1e-8)
    assert result.adjusted_r2 == pytest.approx(1.0, abs=1e-10)


def test_coefficients_match_extended_precision_normal_equations():
    rng = np.random.default_rng(17)
    table = full_table(n=250, seed=17)
    spec = RegressionSpec(
        outcome="y", predictors=("p1", "p2"), controls=("c1",), moderator="m"
    )
    sub = table.listwise(("y", "c1", "p1", "p2", "m"))
    design = build_design(spec, sub)
    result = ols_fit(design, sub.column("y"))
    expected = mp_ols(design.matrix, sub.column("y"))
    np.testing.assert_allclose(result.coefficients, expected, rtol=1e-8)


def test_residuals_orthogonal_to_design():
    table = full_table(n=500, seed=23)
    spec = RegressionSpec(
        outcome="y", predictors=("p1", "p2", "p3"), controls=("c1", "c2"), moderator="m"
    )
    sub = table.listwise(("y", "c1", "c2", "p1", "p2", "p3", "m"))
    design = build_design(spec, sub)
    result = ols_fit(design, sub.column("y"))
    residuals = sub.column("y") - design.matrix @ result.coefficients
    assert np.max(np.abs(design.matrix.T @ residuals)) / sub.n <= 1e-8


def test_planted_negative_quadratic_recovered():
    rng = np.random.default_rng(42)
    n = 10_000
    x = rng.uniform(-2, 2, size=n)
    y = 1.0 + 0.5 * x - 0.8 * x * x + rng.normal(scale=0.1, size=n)
    table = AnalysisTable({"y": y, "x": x})
    result = fit_model(RegressionSpec(outcome="y", predictors=("x",)), table)
    sq = result.term("x^2")
    assert sq.coefficient < 0
    assert sq.p < 0.001
    assert sq.stars == "***"


def test_duplicate_column_triggers_rank_error_naming_terms():
    rng = np.random.default_rng(2)
    x = rng.normal(size=100)
    table = AnalysisTable({"y": rng.normal(size=100), "x": x, "copy": x.copy()})
    spec = RegressionSpec(outcome="y", predictors=("x",), controls=("copy",))
    with pytest.raises(RankDeficiencyError) as excinfo:
        fit_model(spec, table)
    named = set(excinfo.value.terms)
    assert "x" in named and "copy" in named


def test_small_valued_squared_column_fits_and_matches_extended_precision():
    # p spans [0, 1e-3], so p^2 and p^2:m are of order 1e-6 beside a control
    # in the hundreds: the raw design's singular-value ratio falls below
    # RANK_TOL, though the design has full rank at any column scale
    rng = np.random.default_rng(19)
    n = 300
    p = rng.uniform(0.0, 1e-3, size=n)
    m = rng.integers(1, 12, size=n).astype(float)
    c = rng.uniform(100.0, 1000.0, size=n)
    y = 2.0 + 400.0 * p - 2e5 * p * p + 0.05 * m + 0.01 * c + rng.normal(scale=0.1, size=n)
    table = AnalysisTable({"y": y, "p": p, "m": m, "c": c})
    spec = RegressionSpec(outcome="y", predictors=("p",), controls=("c",), moderator="m")
    design = build_design(spec, table)
    s = np.linalg.svd(design.matrix, compute_uv=False)
    assert s[-1] / s[0] < 1e-10
    result = ols_fit(design, y)
    # the same oracle and tolerance as for a well-scaled design
    np.testing.assert_allclose(result.coefficients, mp_ols(design.matrix, y), rtol=1e-8)


def test_scaled_duplicate_column_triggers_rank_error_naming_both_terms():
    rng = np.random.default_rng(2)
    x = rng.normal(size=100)
    table = AnalysisTable({"y": rng.normal(size=100), "x": x, "copy": 1e-6 * x})
    spec = RegressionSpec(outcome="y", predictors=("x",), controls=("copy",))
    with pytest.raises(RankDeficiencyError) as excinfo:
        fit_model(spec, table)
    named = set(excinfo.value.terms)
    assert "x" in named and "copy" in named


def test_standard_errors_match_textbook_formula():
    rng = np.random.default_rng(31)
    n = 300
    x = rng.normal(size=n)
    y = 2.0 + 1.0 * x + rng.normal(size=n)
    table = AnalysisTable({"y": y, "x": x})
    spec = RegressionSpec(outcome="y", predictors=("x",))
    sub = table.listwise(("y", "x"))
    design = build_design(spec, sub)
    result = ols_fit(design, sub.column("y"))
    xm = design.matrix
    resid = sub.column("y") - xm @ result.coefficients
    sigma2 = resid @ resid / (n - xm.shape[1])
    cov = sigma2 * np.linalg.inv(xm.T @ xm)
    for i, term in enumerate(result.terms):
        assert term.std_error == pytest.approx(np.sqrt(cov[i, i]), rel=1e-8)
        assert term.t == pytest.approx(term.coefficient / term.std_error, rel=1e-10)


def test_adjusted_r2_formula():
    rng = np.random.default_rng(9)
    n = 120
    x = rng.normal(size=n)
    y = x + rng.normal(size=n)
    table = AnalysisTable({"y": y, "x": x})
    result = fit_model(RegressionSpec(outcome="y", predictors=("x",)), table)
    n_cols = len(result.terms)
    expected = 1 - (1 - result.r2) * (n - 1) / (n - n_cols)
    assert result.adjusted_r2 == pytest.approx(expected, rel=1e-12)
    assert result.df_resid == n - n_cols


def test_too_few_rows_is_error():
    table = AnalysisTable({"y": [1.0, 2.0, 3.0], "x": [1.0, 2.0, 4.0]})
    with pytest.raises(ValueError, match="rows"):
        fit_model(RegressionSpec(outcome="y", predictors=("x",)), table)


# ---------------------------------------------------------------- curves

def quadratic_fit(seed=11, moderated=True, centering="none"):
    rng = np.random.default_rng(seed)
    n = 2000
    x = rng.uniform(0, 4, size=n)
    z = rng.uniform(1, 9, size=n)
    y = 2.0 + 1.6 * x - 0.4 * x * x + 0.3 * z - 0.15 * x * z + rng.normal(scale=0.05, size=n)
    table = AnalysisTable({"y": y, "x": x, "z": z})
    spec = RegressionSpec(
        outcome="y",
        predictors=("x",),
        moderator="z" if moderated else None,
        centering=centering,
    )
    return fit_model(spec, table), table


def test_mean_response_equals_outcome_mean():
    """The prediction with every design column at its sample mean, which the
    curves start from, is the outcome's mean under OLS with an intercept."""
    result, table = quadratic_fit()
    mean_response = float(result.design.column_means @ result.coefficients)
    assert mean_response == pytest.approx(float(table.column("y").mean()), rel=1e-10)


def test_curve_vertex_matches_fitted_quadratic():
    result, _ = quadratic_fit(moderated=False)
    b1 = result.term("x").coefficient
    b2 = result.term("x^2").coefficient
    grid = np.linspace(0, 4, 401)
    points = predicted_curve(result, "x", grid)
    best = max(points, key=lambda pt: pt.prediction)
    assert best.value == pytest.approx(-b1 / (2 * b2), abs=0.02)


def test_moderator_levels_shift_the_curve():
    result, _ = quadratic_fit()
    grid = np.linspace(0, 4, 5)
    points = predicted_curve(result, "x", grid, moderator_levels=[2.0, 8.0])
    assert len(points) == 10
    low = {pt.value: pt.prediction for pt in points if pt.moderator_level == 2.0}
    high = {pt.value: pt.prediction for pt in points if pt.moderator_level == 8.0}
    # negative interaction: the slope gap must widen with x
    assert (high[4.0] - low[4.0]) < (high[0.0] - low[0.0])


def test_centered_fit_predicts_same_curve_as_raw_fit():
    raw, _ = quadratic_fit(centering="none")
    centered, _ = quadratic_fit(centering="mean")
    grid = np.linspace(0.5, 3.5, 7)
    for level in (2.0, 6.0):
        raw_points = predicted_curve(raw, "x", grid, moderator_levels=[level])
        cen_points = predicted_curve(centered, "x", grid, moderator_levels=[level])
        for a, b in zip(raw_points, cen_points):
            assert a.prediction == pytest.approx(b.prediction, rel=1e-8)


def fit_an_outcome_one_row_short():
    design = build_design(RegressionSpec(outcome="y", predictors=("p1",)), full_table(n=20))
    ols_fit(design, np.zeros(19))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: AnalysisTable({"a": [1.0, 2.0], "b": [1.0]}), ValueError, "equally long"),
        (lambda: RegressionSpec(outcome="y", predictors=("x",), centering="median"),
         ValueError, "centering"),
        (lambda: RegressionSpec(outcome="y", predictors=()), ValueError, "at least one predictor"),
        (fit_an_outcome_one_row_short, ValueError, "outcome length"),
        (lambda: quadratic_fit()[0].term("w"), KeyError, "no term named 'w'"),
    ],
    ids=["unequal_columns", "bad_centering", "no_predictors", "short_outcome", "unknown_term"],
)
def test_malformed_arguments_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_extrapolation_flagged_outside_observed_range():
    result, _ = quadratic_fit()
    points = predicted_curve(result, "x", [-1.0, 2.0, 9.0], moderator_levels=[5.0])
    flags = {pt.value: pt.extrapolated for pt in points}
    assert flags[-1.0] and flags[9.0]
    assert not flags[2.0]


def test_curve_requires_model_terms():
    result, _ = quadratic_fit()
    with pytest.raises(ValueError, match="not a predictor"):
        predicted_curve(result, "z", [1.0], moderator_levels=[1.0])
    with pytest.raises(ValueError, match="levels are required"):
        predicted_curve(result, "x", [1.0])
    unmoderated, _ = quadratic_fit(moderated=False)
    with pytest.raises(ValueError, match="no moderator"):
        predicted_curve(unmoderated, "x", [1.0], moderator_levels=[1.0])
