"""Correlation matrices, moderated quadratic OLS, and predicted-curve output.

The design for one model is assembled in a fixed column order: intercept,
controls, then for each predictor its linear and squared term, then the
moderator, then for each predictor its linear-by-moderator and
squared-by-moderator products.  Fitting goes through an SVD of the design
matrix rather than the normal equations; near rank deficiency is an error
that names the collinear terms instead of a silently unstable solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

RANK_TOL = 1e-10

STAR_THRESHOLDS = ((0.001, "***"), (0.05, "**"), (0.1, "*"))

CENTERINGS = ("none", "mean")  # the values of RegressionSpec.centering


# The Student t tail is a regularized incomplete beta, sf = ½ I_x(df/2, ½)
# with x = df / (df + t²), and I_x comes from its continued fraction.  Near
# x = 1 the fraction loses about df·1e-16 in relative accuracy: 7.4e-11 at
# df = 10^6, so the stated 1e-10 holds up to that many degrees of freedom.

# ln Γ(a + ½) − ln Γ(a) − ½ ln a = Σ c_k / a^(2k−1), from the Bernoulli
# numbers: c_k = −(2 − 2^(1−2k)) B_2k / ((2k − 1) 2k).  From a = _LARGE_A
# on, the first omitted term is below 1e-17.
_LARGE_A = 25.0
_HALF_GAMMA_RATIO_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432)

_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_TERMS = 1000  # far above the ~70 the t tail needs


def _ln_half_gamma_ratio(a: float) -> float:
    """ln Γ(a + ½) − ln Γ(a).

    For large ``a`` both log-gammas are large and nearly equal, so their
    difference would lose digits; the asymptotic series keeps them.
    """
    if a < _LARGE_A:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    inv_sq = 1.0 / (a * a)
    total = 0.0
    for c in reversed(_HALF_GAMMA_RATIO_SERIES):
        total = total * inv_sq + c
    return 0.5 * math.log(a) + total / a


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) (DLMF 8.17.22), by modified Lentz.

    It converges fast for x < (a + 1) / (a + b + 2).
    """
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coefficient in (even, odd):
            d = 1.0 + coefficient * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coefficient / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            delta = c * d
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge at x={x!r}")


def _t_tail(t: float, df: float) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom.

    sf = ½ I_x(df/2, ½) with x = 1 / (1 + q), q = t² / df.  The logs of x
    and of 1 − x = q / (1 + q) are taken from q, so neither a huge nor a
    tiny t loses them to rounding.
    """
    if math.isnan(t):
        return math.nan
    if t == 0.0:
        return 0.5
    if t < 0.0:
        return 1.0 - _t_tail(-t, df)
    if t == math.inf:
        return 0.0
    a = 0.5 * df
    q = t * t / df
    ln_q = math.log(q) if 1e-300 < q < 1e300 else 2.0 * math.log(t) - math.log(df)
    ln_1p_q = math.log1p(q) if q < 1e300 else ln_q + math.log1p(1.0 / q)
    ln_x, ln_1mx = -ln_1p_q, ln_q - ln_1p_q
    ln_beta = 0.5 * math.log(math.pi) - _ln_half_gamma_ratio(a)  # ln B(a, ½)
    if 1.0 / (1.0 + q) < (a + 1.0) / (a + 2.5):
        cf = _beta_cf(a, 0.5, 1.0 / (1.0 + q))
        return 0.5 * math.exp(a * ln_x + 0.5 * ln_1mx - ln_beta + math.log(cf / a))
    # I_x(a, ½) = 1 − I_{1−x}(½, a)
    cf = _beta_cf(0.5, a, q / (1.0 + q))
    return 0.5 - 0.5 * math.exp(0.5 * ln_1mx + a * ln_x - ln_beta + math.log(2.0 * cf))


def _t_sf(x, df):
    """Student t survival function, as ``scipy.stats.t.sf(x, df)`` gives it.

    Works elementwise on an array or a scalar ``x``.  For df up to 10^6,
    within 1e-10 relative error of a 50-digit evaluation wherever the tail
    is at least 1e-290; ±0 gives 0.5, +inf 0, -inf 1 and nan nan.
    """
    x, df = np.asarray(x, dtype=np.float64), float(df)
    tails = [_t_tail(t, df) for t in x.ravel().tolist()]
    return np.array(tails, dtype=np.float64).reshape(x.shape)[()]


def star_label(p: float) -> str:
    """Significance stars: *** p<0.001, ** p<0.05, * p<0.1."""
    for cutoff, stars in STAR_THRESHOLDS:
        if p < cutoff:
            return stars
    return ""


class RankDeficiencyError(ValueError):
    def __init__(self, terms: tuple[str, ...]):
        super().__init__(
            "design matrix is rank deficient; collinear terms: " + ", ".join(terms)
        )
        self.terms = terms


@dataclass
class AnalysisTable:
    """Named numeric columns of equal length; NaN marks a missing cell."""

    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("analysis table needs at least one column")
        self.columns = {
            name: np.asarray(values, dtype=np.float64)
            for name, values in self.columns.items()
        }
        lengths = {v.shape for v in self.columns.values()}
        if len(lengths) != 1 or any(len(s) != 1 for s in lengths):
            raise ValueError("all columns must be one-dimensional and equally long")

    @property
    def n(self) -> int:
        return next(iter(self.columns.values())).shape[0]

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return self.columns[name]

    def listwise(self, names: tuple[str, ...] | list[str]) -> "AnalysisTable":
        """Restrict to ``names`` and drop every row with any missing cell."""
        selected = [self.column(name) for name in names]
        mask = np.ones(self.n, dtype=bool)
        for values in selected:
            mask &= np.isfinite(values)
        return AnalysisTable(
            {name: values[mask] for name, values in zip(names, selected)}
        )


@dataclass(frozen=True)
class CorrelationMatrix:
    columns: tuple[str, ...]
    r: np.ndarray
    p: np.ndarray
    df: int


def pearson_matrix(
    table: AnalysisTable, columns: tuple[str, ...] | list[str]
) -> CorrelationMatrix:
    """Pairwise Pearson r with two-sided t-test p-values, df = N - 2.

    Listwise deletion over ``columns`` is applied first, so every pair shares
    one N.  A zero-variance column is an error naming the column.
    """
    sub = table.listwise(tuple(columns))
    n = sub.n
    if n < 3:
        raise ValueError(f"need at least 3 complete rows, have {n}")
    data = np.stack([sub.column(name) for name in columns])
    stds = data.std(axis=1)
    for name, std in zip(columns, stds):
        if std == 0.0:
            raise ValueError(f"column {name!r} has zero variance")
    r = np.corrcoef(data)
    df = n - 2
    r_clipped = np.clip(r, -1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stat = r_clipped * np.sqrt(df / (1.0 - r_clipped**2))
        t_stat = np.where(np.abs(r_clipped) >= 1.0, np.inf, np.abs(t_stat))
    p = 2.0 * _t_sf(t_stat, df)
    return CorrelationMatrix(columns=tuple(columns), r=r, p=p, df=df)


@dataclass(frozen=True)
class RegressionSpec:
    """One model: outcome, controls, quadratic predictors, optional moderator."""

    outcome: str
    predictors: tuple[str, ...]
    controls: tuple[str, ...] = ()
    moderator: str | None = None
    centering: str = "none"  # one of CENTERINGS

    def __post_init__(self) -> None:
        if self.centering not in CENTERINGS:
            raise ValueError(f"centering must be {' or '.join(map(repr, CENTERINGS))}")
        if not self.predictors:
            raise ValueError("at least one predictor is required")
        roles = [self.outcome, *self.controls, *self.predictors]
        if self.moderator is not None:
            roles.append(self.moderator)
        if len(set(roles)) != len(roles):
            raise ValueError("duplicate column across outcome/controls/predictors/moderator")

    def base_columns(self) -> tuple[str, ...]:
        names = [*self.controls, *self.predictors]
        if self.moderator is not None:
            names.append(self.moderator)
        return tuple(names)


@dataclass
class Design:
    matrix: np.ndarray
    names: tuple[str, ...]
    spec: RegressionSpec
    base_means: dict[str, float]
    base_sds: dict[str, float]  # sample standard deviations, ddof=1
    base_ranges: dict[str, tuple[float, float]]
    column_means: np.ndarray


def _design_terms(spec: RegressionSpec, values: dict, means: dict[str, float]) -> dict:
    """The named design terms of ``spec``'s predictors and moderator, in
    design order: each predictor's linear and squared term, the moderator,
    then each predictor's products with it.  ``values`` holds the raw values
    of those columns, arrays or numbers; with centering="mean" each is taken
    less its mean in ``means`` first."""

    def effect(name: str):
        return values[name] - means[name] if spec.centering == "mean" else values[name]

    xs = {pred: effect(pred) for pred in spec.predictors}
    terms = {}
    for pred, x in xs.items():
        terms[pred], terms[f"{pred}^2"] = x, x * x
    if (moderator := spec.moderator) is not None:
        z = terms[moderator] = effect(moderator)
        for pred, x in xs.items():
            terms[f"{pred}:{moderator}"], terms[f"{pred}^2:{moderator}"] = x * z, x * x * z
    return terms


def build_design(spec: RegressionSpec, table: AnalysisTable) -> Design:
    """Assemble the design matrix for ``spec`` from a complete table.

    The table must already be listwise-complete for every referenced column
    (including the outcome, so design rows align with outcome rows).  With
    centering="mean", predictors and the moderator are mean-centered before
    squares and products are formed; controls are left raw.
    """
    for name in (spec.outcome, *spec.base_columns()):
        if not np.all(np.isfinite(table.column(name))):
            raise ValueError(
                f"column {name!r} has missing values; apply listwise deletion first"
            )

    raw = {name: table.column(name) for name in spec.base_columns()}
    base_means = {name: float(values.mean()) for name, values in raw.items()}
    # NaN for a single row, which the fit refuses, without numpy's warning
    base_sds = {name: float(v.std(ddof=1)) if table.n > 1 else math.nan for name, v in raw.items()}
    base_ranges = {
        name: (float(values.min()), float(values.max())) for name, values in raw.items()
    }

    terms = _design_terms(spec, raw, base_means)
    names = ("const", *spec.controls, *terms)
    cols = [np.ones(table.n), *(raw[name] for name in spec.controls), *terms.values()]
    matrix = np.column_stack(cols)
    return Design(
        matrix=matrix,
        names=names,
        spec=spec,
        base_means=base_means,
        base_sds=base_sds,
        base_ranges=base_ranges,
        column_means=matrix.mean(axis=0),
    )


@dataclass(frozen=True)
class TermEstimate:
    name: str
    coefficient: float
    std_error: float
    t: float
    p: float
    stars: str


@dataclass
class RegressionResult:
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    r2: float
    adjusted_r2: float
    n: int
    df_resid: int
    design: Design

    @cached_property
    def terms(self) -> tuple[TermEstimate, ...]:
        """Per-term estimates with two-sided p-values and stars.

        Computed on first access, so a caller that reads only coefficients
        (``predicted_curve``, say) evaluates no t tail.
        """
        p = 2.0 * _t_sf(np.abs(self.t_stats), self.df_resid)
        return tuple(
            TermEstimate(
                name=name,
                coefficient=float(b),
                std_error=float(e),
                t=float(ts),
                p=float(pv),
                stars=star_label(float(pv)),
            )
            for name, b, e, ts, pv in zip(
                self.design.names, self.coefficients, self.std_errors, self.t_stats, p
            )
        )

    def term(self, name: str) -> TermEstimate:
        for estimate in self.terms:
            if estimate.name == name:
                return estimate
        raise KeyError(f"no term named {name!r}")


def _collinear_terms(names: tuple[str, ...], s: np.ndarray, vt: np.ndarray) -> tuple[str, ...]:
    # columns loading on near-null right-singular directions
    bad = s / s[0] < RANK_TOL if s[0] > 0 else np.ones_like(s, dtype=bool)
    involved = np.abs(vt[bad]).max(axis=0) > 0.3
    terms = tuple(name for name, flag in zip(names, involved) if flag)
    return terms if terms else tuple(names)


def ols_fit(design: Design, y: np.ndarray) -> RegressionResult:
    """Least squares through an SVD of the design matrix.

    Standard errors come from sigma^2 * (X'X)^-1; p-values are two-sided
    with N - p - 1 degrees of freedom for p non-intercept columns, which
    equals N minus the total column count.
    """
    x = design.matrix
    y = np.asarray(y, dtype=np.float64)
    n, n_cols = x.shape
    if y.shape != (n,):
        raise ValueError("outcome length does not match the design")
    if n <= n_cols:
        raise ValueError(f"need more rows ({n}) than design columns ({n_cols})")

    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[0] == 0.0 or s[-1] / s[0] < RANK_TOL:
        # A small-valued column, squared, can look collinear on the raw
        # scale: judge rank again with each column divided by its largest
        # magnitude, and solve there.  Then x = u s (vt * scale), whose
        # inverse on its range is (vt / scale).T s^-1 u.T, so vt / scale
        # takes the place of vt in the estimates and standard errors below.
        scale = np.abs(x).max(axis=0)
        scale[scale == 0.0] = 1.0
        u, s, vt = np.linalg.svd(x / scale, full_matrices=False)
        if s[0] == 0.0 or s[-1] / s[0] < RANK_TOL:
            raise RankDeficiencyError(_collinear_terms(design.names, s, vt))
        vt = vt / scale

    beta = vt.T @ ((u.T @ y) / s)
    residuals = y - x @ beta
    rss = float(residuals @ residuals)
    df_resid = n - n_cols
    sigma2 = rss / df_resid
    cov_diag = ((vt / s[:, None]) ** 2).sum(axis=0) * sigma2
    se = np.sqrt(cov_diag)

    with np.errstate(divide="ignore", invalid="ignore"):
        t_stat = np.where(
            se > 0.0,
            beta / np.where(se > 0.0, se, 1.0),
            np.where(beta == 0.0, 0.0, np.sign(beta) * np.inf),
        )

    mean_y = float(y.mean())
    tss = float(((y - mean_y) ** 2).sum())
    if tss == 0.0:
        raise ValueError("outcome has zero variance")
    r2 = 1.0 - rss / tss
    adjusted = 1.0 - (1.0 - r2) * (n - 1) / df_resid

    return RegressionResult(
        coefficients=beta,
        std_errors=se,
        t_stats=t_stat,
        r2=r2,
        adjusted_r2=adjusted,
        n=n,
        df_resid=df_resid,
        design=design,
    )


def fit_model(spec: RegressionSpec, table: AnalysisTable) -> RegressionResult:
    """Listwise-delete, build the design, and fit in one call.  A table with
    no complete row is refused as ``ols_fit`` refuses too few rows, before
    any moment of an empty column is taken."""
    complete = table.listwise((spec.outcome, *spec.base_columns()))
    if complete.n == 0:
        zeros = dict.fromkeys(spec.base_columns(), 0.0)
        n_cols = 1 + len(spec.controls) + len(_design_terms(spec, zeros, zeros))
        raise ValueError(f"need more rows (0) than design columns ({n_cols})")
    design = build_design(spec, complete)
    return ols_fit(design, complete.column(spec.outcome))


@dataclass(frozen=True)
class CurvePoint:
    predictor: str
    value: float
    moderator_level: float | None
    prediction: float
    extrapolated: bool


def predicted_curve(
    result: RegressionResult,
    predictor: str,
    grid: np.ndarray | list[float],
    moderator_levels: list[float] | None = None,
) -> list[CurvePoint]:
    """Model predictions along a predictor grid at fixed moderator levels.

    The swept predictor's linear, squared, and product columns follow the
    grid value; the moderator main effect follows the level; every other
    design column stays at its sample mean.  Grid values outside the
    observed predictor range are flagged as extrapolated.
    """
    spec = result.design.spec
    if predictor not in spec.predictors:
        raise ValueError(f"{predictor!r} is not a predictor of this model")
    if spec.moderator is None:
        if moderator_levels:
            raise ValueError("model has no moderator, but moderator levels were given")
        levels: list[float | None] = [None]
    else:
        if not moderator_levels:
            raise ValueError("moderator levels are required for a moderated model")
        levels = list(moderator_levels)

    position = {name: i for i, name in enumerate(result.design.names)}
    swept = replace(spec, predictors=(predictor,))
    low, high = result.design.base_ranges[predictor]

    points: list[CurvePoint] = []
    for value in grid:
        value = float(value)
        extrapolated = not (low <= value <= high)
        for level in levels:
            row = result.design.column_means.copy()
            raw = {predictor: value} if level is None else {predictor: value, spec.moderator: level}
            for name, term in _design_terms(swept, raw, result.design.base_means).items():
                row[position[name]] = term
            points.append(
                CurvePoint(
                    predictor=predictor,
                    value=value,
                    moderator_level=level,
                    prediction=float(row @ result.coefficients),
                    extrapolated=extrapolated,
                )
            )
    return points
