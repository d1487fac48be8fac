"""Linear-model comparison of nasalance across systems and environments.

The model is ordinary least squares on per-token nasalance with
deviation-coded system, environment, their interaction, and a vowel
control term. From the fit: estimated marginal means per system x
environment cell (vowel averaged with equal weights), pairwise environment
contrasts within each system, and the difference-of-differences that asks
whether two systems capture an environment contrast at different
magnitudes. p-values are two-sided Student t with the fit's residual df,
Bonferroni-adjusted over an explicit family size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations, product

import numpy as np

from .errors import DesignError, NumericError, RankDeficiencyError
from .output import _csv_blocks, _quoted

# with zero residual variance, estimates this small count as exact zeros
_ZERO_ESTIMATE_TOL = 1e-10


@dataclass(frozen=True, slots=True)
class TokenRecord:
    """One vowel token with its factors and midpoint nasalance."""

    source_id: str
    speaker: str
    system: str
    word: str
    vowel: str
    environment: str
    t_mid_s: float
    nasalance_pct: float

    def __post_init__(self):
        if not (0.0 <= self.nasalance_pct <= 100.0):
            raise ValueError(
                f"nasalance_pct {self.nasalance_pct} outside [0, 100]"
            )
        for name in ("system", "vowel", "environment"):
            if not getattr(self, name):
                raise ValueError(f"empty factor level: {name}")


def deviation_code(levels) -> np.ndarray:
    """Sum (deviation) coding matrix, k levels x (k-1) columns.

    Level i < k gets a 1 in column i; the last level gets -1 everywhere,
    so coefficients compare levels against the grand mean.
    """
    levels = list(levels)
    k = len(levels)
    if k < 2:
        raise DesignError(f"factor needs at least 2 levels, got {levels!r}")
    if len(set(levels)) != k:
        raise DesignError(f"duplicate factor levels in {levels!r}")
    m = np.eye(k, k - 1)
    m[k - 1] = -1.0
    return m


@dataclass(frozen=True)
class Design:
    """Design matrix with named columns and the coding tables behind them."""

    X: np.ndarray
    y: np.ndarray
    names: tuple[str, ...]
    codings: dict


def _coded(codings, factor, names) -> np.ndarray:
    """Coding-matrix rows of one factor, one per level name in names."""
    levels, m = codings[factor]
    index = {lv: i for i, lv in enumerate(levels)}
    try:
        return m[[index[name] for name in names]]
    except KeyError as exc:
        raise ValueError(f"unknown {factor} level {exc.args[0]!r}") from None


def _rows(codings, systems, environments, vowels=None) -> np.ndarray:
    """Model rows for parallel sequences of level names, one row per position.

    Columns: intercept, system, environment, system x environment (system
    outer), vowel. With vowels=None the vowel columns sit at the coding
    centroid, which weights every vowel equally (the EMM reference grid).
    """
    s = _coded(codings, "system", systems)
    e = _coded(codings, "environment", environments)
    n = len(s)
    cols = [np.ones((n, 1)), s, e, (s[:, :, None] * e[:, None, :]).reshape(n, -1)]
    if "vowel" in codings:
        if vowels is None:
            cols.append(np.tile(codings["vowel"][1].mean(axis=0), (n, 1)))
        else:
            cols.append(_coded(codings, "vowel", vowels))
    return np.hstack(cols)


def build_design(records) -> Design:
    """Design matrix: intercept, system, environment, their interaction, vowel.

    Factors are deviation-coded with levels in lexicographic order. System
    and environment need at least two levels; a single-level vowel control
    is vacuous and drops out.
    """
    records = list(records)
    if not records:
        raise DesignError("no records")
    # one comprehension per field: transposing the records with zip(*...)
    # takes ten times as long (0.1 s against 0.01 s on 120k records)
    columns = {"system": [r.system for r in records],
               "environment": [r.environment for r in records],
               "vowel": [r.vowel for r in records]}
    codings, names = {}, ["intercept"]
    for factor, column in columns.items():
        levels = sorted(set(column))
        if len(levels) < 2:
            if factor == "vowel":
                break
            raise DesignError(f"{factor} has a single observed level: {levels!r}")
        codings[factor] = (tuple(levels), deviation_code(levels))
        names += [f"{factor}.{lv}" for lv in levels[:-1]]
        if factor == "environment":  # the interaction, system outer
            names += [f"env.{e_lv}:sys.{s_lv}" for s_lv in codings["system"][0][:-1]
                      for e_lv in levels[:-1]]
    X = _rows(codings, *columns.values())
    y = np.array([r.nasalance_pct for r in records], dtype=np.float64)
    return Design(X=X, y=y, names=tuple(names), codings=codings)


@dataclass(frozen=True)
class FitResult:
    """OLS output plus the coding tables needed to build prediction rows."""

    names: tuple[str, ...]
    estimates: np.ndarray
    covariance: np.ndarray
    residual_variance: float
    residual_df: int
    codings: dict = field(default_factory=dict)


def ols_fit(X, y, names=None, codings=None) -> FitResult:
    """Least squares via QR decomposition (never the raw normal equations).

    covariance = residual_variance * (X'X)^-1, computed from the R factor.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or len(y) != X.shape[0]:
        raise ValueError("X must be 2-d with one y per row")
    n, p = X.shape
    names = tuple(names) if names is not None else tuple(f"x{i}" for i in range(p))
    if len(names) != p:
        raise ValueError("one name per column required")
    if n <= p:
        raise NumericError(f"need more observations than columns (n={n}, p={p})")
    q, r = np.linalg.qr(X, mode="reduced")
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(n, p) * np.finfo(float).eps if diag.size else 0.0
    aliased = [names[i] for i in range(p) if diag[i] <= tol]
    if aliased:
        raise RankDeficiencyError("design matrix is rank deficient", columns=aliased)
    # back-substitution by row dot products; on every design tried (up to 48
    # columns) it equals LAPACK's triangular solve bit for bit
    qty = q.T @ y
    beta = np.empty(p)
    for i in range(p - 1, -1, -1):
        beta[i] = (qty[i] - r[i, i + 1 :] @ beta[i + 1 :]) / r[i, i]
    resid = y - X @ beta
    rss = float(resid @ resid)
    df = n - p
    sigma2 = rss / df
    # residuals at rounding noise, below the rank test's max(n, p) * eps scaled
    # by max|y|, are an exact fit: with zero variance every row has zero SE
    if sigma2 < (max(n, p) * np.finfo(float).eps * float(np.max(np.abs(y)))) ** 2:
        sigma2 = 0.0
    r_inv = np.linalg.solve(r, np.eye(p))
    xtx_inv = r_inv @ r_inv.T
    cov = sigma2 * xtx_inv
    cov = (cov + cov.T) / 2.0
    return FitResult(
        names=names,
        estimates=beta,
        covariance=cov,
        residual_variance=sigma2,
        residual_df=df,
        codings=dict(codings) if codings else {},
    )


def fit_nasalance_model(records) -> FitResult:
    """Convenience: build_design + ols_fit with coding tables attached."""
    design = build_design(records)
    return ols_fit(design.X, design.y, names=design.names, codings=design.codings)


def _levels(fit: FitResult, factor: str) -> tuple[str, ...]:
    """The fit's levels of "system" or "environment"."""
    if "system" not in fit.codings or "environment" not in fit.codings:
        raise ValueError("fit carries no system/environment coding tables")
    return fit.codings[factor][0]


def _estimate(fit: FitResult, x: np.ndarray) -> tuple[float, float]:
    """Estimate and standard error of the linear function x @ beta of a fit.

    Every EMM and contrast row comes from here, one row at a time: the matrix
    form L @ beta differs from it in the last bit on about a quarter of rows.
    """
    return float(x @ fit.estimates), math.sqrt(max(float(x @ fit.covariance @ x), 0.0))


@dataclass(frozen=True)
class EmmRow:
    system: str
    environment: str
    emm: float
    se: float


@dataclass(frozen=True)
class EmmTable:
    rows: tuple[EmmRow, ...]

    def __iter__(self):
        return iter(self.rows)

    def cell(self, system: str, environment: str) -> EmmRow:
        for row in self.rows:
            if row.system == system and row.environment == environment:
                return row
        raise KeyError((system, environment))


def emmeans(fit: FitResult) -> EmmTable:
    """Estimated marginal means for every system x environment cell.

    The vowel control is averaged with equal weight per level (not observed
    proportions), so an EMM is the model's cell value at the vowel centroid.
    """
    cells = list(product(_levels(fit, "system"), _levels(fit, "environment")))
    grid = _rows(fit.codings, *zip(*cells))
    return EmmTable(tuple(EmmRow(s, e, *_estimate(fit, x))
                          for (s, e), x in zip(cells, grid)))


@dataclass(frozen=True)
class ContrastRow:
    description: str
    estimate: float
    se: float
    t: float
    df: int
    p: float
    p_adjusted: float


def _contrast_rows(fit: FitResult, terms, family_size: int | None = None):
    """A ContrastRow per (description, cells) term: the signed sum of its
    (system, environment, +1 or -1) cells' model rows, added in cell order, and
    p_adjusted Bonferroni over family_size, by default the number of rows."""
    if not terms:  # both tables run over environment pairs
        raise DesignError("need at least 2 environments for contrasts")
    systems, environments, signs = zip(*(cell for _, cells in terms for cell in cells))
    x = _rows(fit.codings, systems, environments) * np.array(signs)[:, None]
    rows, end = [], 0
    for description, cells in terms:
        start, end = end, end + len(cells)
        estimate, se = _estimate(fit, sum(x[start + 1 : end], x[start]))
        # with a zero SE, t is 0 for an estimate at rounding noise and infinite
        # otherwise; se becomes 0.0, never the -0.0 that sqrt(-0.0) gives
        if se > 0:
            t = estimate / se
            p = student_t_p(t, fit.residual_df)
        elif abs(estimate) <= _ZERO_ESTIMATE_TOL:
            se, t, p = 0.0, 0.0, 1.0
        else:
            se, t, p = 0.0, math.inf if estimate > 0 else -math.inf, 0.0
        rows.append(ContrastRow(description, estimate, se, t, fit.residual_df, p, p))
    m = len(rows) if family_size is None else family_size
    adjusted = bonferroni([row.p for row in rows], m)
    return tuple(replace(row, p_adjusted=p_adj) for row, p_adj in zip(rows, adjusted))


def pairwise_env_contrasts(
    fit: FitResult, within_system: str, family_size: int | None = None
) -> tuple[ContrastRow, ...]:
    """All unordered environment pairs within one system.

    family_size defaults to the number of pairs in this table.
    """
    return _contrast_rows(fit, [
        (f"{within_system}: {env_i} - {env_j}",
         ((within_system, env_i, 1), (within_system, env_j, -1)))
        for env_i, env_j in combinations(_levels(fit, "environment"), 2)
    ], family_size)


def difference_of_differences_table(
    fit: FitResult, family_size: int | None = None
) -> tuple[ContrastRow, ...]:
    """How differently two systems capture each environment contrast.

    Per environment pair, estimate = (emm_i - emm_j under the first system
    level) - (emm_i - emm_j under the second). Negative values mean the
    second system shows the larger contrast for this pair's orientation.
    """
    sys_levels = _levels(fit, "system")
    if len(sys_levels) != 2:
        raise DesignError(
            f"difference of differences needs exactly 2 systems, got {len(sys_levels)}"
        )
    sys_a, sys_b = sys_levels
    return _contrast_rows(fit, [
        (f"({env_i} - {env_j}): {sys_a} - {sys_b}",
         ((sys_a, env_i, 1), (sys_a, env_j, -1), (sys_b, env_i, -1), (sys_b, env_j, 1)))
        for env_i, env_j in combinations(_levels(fit, "environment"), 2)
    ], family_size)


def bonferroni(p_values, m: int):
    """Family-wise error correction: each p becomes min(1, p*m)."""
    if m < 1:
        raise ValueError(f"family size must be >= 1, got {m}")
    out = []
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value {p} outside [0, 1]")
        out.append(min(1.0, p * m))
    return out


# B_2k / (2k (2k - 1)), the coefficients of Stirling's series for log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_MAX_CF_TERMS = 1_000_000
# A |t| this small moves the two-sided p-value less than 1e-14 below 1; it is
# the rounding noise of a zero estimate, and its p-value reads exactly 1
_T_NOISE = 1e-14


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a) / Gamma(a + 1/2)).

    For large a the two lgamma values are huge and nearly equal, and their
    difference loses about 1e-10 relative at a = 60000; the difference of
    the two Stirling series has no such cancellation.
    """
    if a < 20.0:
        return math.lgamma(a) - math.lgamma(a + 0.5)
    series = sum(c * (a ** (1 - 2 * k) - (a + 0.5) ** (1 - 2 * k))
                 for k, c in enumerate(_STIRLING, 1))
    return 0.5 - a * math.log1p(0.5 / a) - 0.5 * math.log(a) + series


def _beta_continued_fraction(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) * a * B(a, b) / (x^a y^b), where y = 1 - x.

    Numerical Recipes' continued fraction (section 6.4), in its even
    contraction and evaluated by Lentz's method. It converges quickly for
    x < (a + 1) / (a + b + 2). Each partial denominator holds a
    1 - (a+m)(a+b+m) x / ((a+2m)(a+2m+1)); when x is near 1 it is formed
    from y, because the subtraction would lose the digits that carry the
    answer when a is large.
    """
    tiny = 1e-300  # keeps a vanishing denominator from dividing by zero

    def odd(m):  # the continued fraction's coefficient d_{2m+1}
        return -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))

    def one_plus_odd(m):
        if x <= 0.5:
            return 1.0 + odd(m)
        return ((a * (2 * m + 1.0 - b) + m * (3 * m + 2.0 - b))
                + (a + m) * (a + b + m) * y) / ((a + 2 * m) * (a + 2 * m + 1.0))

    f = one_plus_odd(0)
    f = f if abs(f) > tiny else tiny
    c, d = f, 0.0
    for m in range(1, _MAX_CF_TERMS):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        num = -odd(m - 1) * even
        den = one_plus_odd(m) + even
        d = den + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = den + num / c
        c = c if abs(c) > tiny else tiny
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            return 1.0 / f
    raise NumericError(f"incomplete beta did not converge (a={a:g}, b={b:g}, x={x:g})")


def student_t_p(t: float, df: float) -> float:
    """Two-sided p-value of a Student t statistic.

    Uses the regularized incomplete beta identity
    P(|T| >= t) = I_x(df/2, 1/2) with x = df/(df+t^2), evaluated by its
    continued fraction, or as 1 - I_{1-x}(1/2, df/2) where that converges
    faster. x and 1 - x are both formed from u = t^2/df: at large df, x
    itself is so near 1 that rounding it would move p by df * 1e-16.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if not math.isfinite(t):
        return 0.0
    u = t * t / df
    if abs(t) < _T_NOISE or u == 0.0:
        return 1.0
    if math.isinf(u):
        return 0.0
    a = df / 2.0
    log1pu = math.log1p(u)
    x, y = 1.0 / (1.0 + u), u / (1.0 + u)
    # x^a y^(1/2) / B(a, 1/2), where B(a, 1/2) = sqrt(pi) Gamma(a) / Gamma(a + 1/2)
    front = math.exp(-a * log1pu + 0.5 * (math.log(u) - log1pu)
                     - _log_gamma_ratio(a) - 0.5 * math.log(math.pi))
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_continued_fraction(a, 0.5, x, y) / a
    return 1.0 - front * _beta_continued_fraction(0.5, a, y, x) / 0.5


def emm_to_csv(table: EmmTable):
    """CSV text with columns system,environment,emm,se, in blocks as they
    are iterated (see output._csv_blocks)."""
    rows = ((r.system, r.environment, f"{r.emm:.9g}", f"{r.se:.9g}") for r in table)
    return _csv_blocks(("system", "environment", "emm", "se"), _quoted(rows))


def contrasts_to_csv(*tables):
    """CSV text with columns contrast,estimate,se,t,df,p,p_adj (9 sig
    digits), in blocks as they are iterated (see output._csv_blocks)."""
    rows = (
        (r.description, f"{r.estimate:.9g}", f"{r.se:.9g}", f"{r.t:.9g}",
         r.df, f"{r.p:.9g}", f"{r.p_adjusted:.9g}")
        for table in tables
        for r in table
    )
    return _csv_blocks(("contrast", "estimate", "se", "t", "df", "p", "p_adj"),
                       _quoted(rows))
