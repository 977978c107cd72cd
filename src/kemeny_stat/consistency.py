"""Cross-checks between closed forms, fitted curves, tabulated anchors, and oracles.

Every quantity with more than one independent source gets a row comparing
the sources side by side.  Disagreements are documented with a flag and a
note -- never patched, reconciled, or failed on.  The report also lists the
desk-scale substitutions made where the original data or replication scale
is out of reach.  The fitted and transcribed formulas it audits live here,
off the runtime path of :mod:`kemeny_stat.null_models`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import __version__ as _version
from .enum_oracle import _check_n, exact_moments
from .errors import DomainError
from .null_models import alpha_of_n, implied_std_kurtosis, null_table, population_variance
from .reference import (
    NULL_EXCESS_KURTOSIS_BY_N,
    NULL_STD_BY_N,
    SPEARMAN_STD_KURTOSIS_BY_N,
    TWO_SIDED_CUTOFF_N15,
)

__all__ = ["consistency_report", "render_text"]

_AGREE_TOL = 5e-3


# --------------------------------------------------------------------------
# audited formulas: fitted curves and transcribed displays that no null or
# z test reads, kept for the report rows below

def variance_poly(n: int | float) -> float:
    """Cubic fit to the null variance, valid for n >= 9 only."""
    if n < 9:
        raise DomainError("variance polynomial is fitted for n >= 9")
    return 11.82 - 2.31825 * n + 0.207355 * n**2 + 0.110824 * n**3


def kurtosis_poly(n: int | float) -> float:
    """Exponential fit to the (negative) excess kurtosis, for n >= 9 only."""
    if n < 9:
        raise DomainError("kurtosis fit is valid for n >= 9")
    return -math.exp(0.0002939 * n**2 - 0.05537 * n - 1.149)


def beta_binomial_variance(trials: int, shape: Fraction | float) -> Fraction:
    """Variance of a symmetric beta-binomial(N, a, a): N(N + 2a) / (4(2a + 1))."""
    n_tr = Fraction(trials)
    a = Fraction(shape) if not isinstance(shape, Fraction) else shape
    return n_tr * (n_tr + 2 * a) / (4 * (2 * a + 1))


@dataclass(frozen=True)
class RiffledMoments:
    """Central moments of the two-component tied/untied distance mixture."""

    mu2: float
    mu3: float
    mu4: float


def riffled_moments(m: int, alpha1: float, alpha2: float, weight: float = 0.5) -> RiffledMoments:
    """Central moments of the riffled mixture on support [0, 2m].

    ``m`` is the pair count n(n-1)/2, ``alpha1``/``alpha2`` the shapes of
    the even/odd components and ``weight`` the mixing weight.  Transcribed
    form; the consistency report compares it against the enumeration
    moments and the closed-form variance, and the disagreements it finds
    are tabulated there rather than patched here.
    """
    if weight < 0 or weight > 1:
        raise DomainError("mixture weight must lie in [0, 1]")
    a1, a2, w = float(alpha1), float(alpha2), float(weight)
    mu2 = (
        1.0
        / ((1.0 + 2.0 * a1) * (1.0 + 2.0 * a2))
        * (
            1.0
            - 2.0 * m
            + m**2
            - w
            + 2.0 * m * w
            + 2.0 * a2 * (-1.0 + m + w - m * w + m**2 * w)
            - 2.0
            * a1
            * (
                -1.0
                + m * (2.0 - 3.0 * w)
                + m**2 * (w - 1.0)
                + w
                - 2.0 * a2 * (w + m - 1.0)
            )
        )
    )
    mu4 = (
        5.0
        - 8.0 * m
        + 3.0 * m**2
        - 5.0 * w
        + 6.0 * m * w
        + (m - 1.0) * m * w * (2.0 + 3.0 * (m - 1.0)) / (2.0 + 4.0 * a1)
        - 3.0 * m * w * (m - 3.0) * (m - 2.0) * (m - 1.0) / (6.0 + 4.0 * a1)
        - m * (m - 2.0) * (m - 1.0) * (8.0 + 3.0 * (m - 3.0)) * (w - 1.0) / (2.0 + a2)
        + 3.0 * (w - 1.0) * (m - 1.0) * (m - 2.0) * (m - 3.0) * (m - 4.0) / (6.0 + a2)
    )
    return RiffledMoments(mu2=mu2, mu3=0.0, mu4=mu4)


def riffled_variance_mixture(m: int, alpha1: float, alpha2: float) -> float:
    """Equal-weight variance of the mixture in closed form.

    (1/2)(m(m-1)/(1+2a1) + (m-1)(m-2)/(1+2a2) + 2m - 1); agrees with
    ``riffled_moments(m, a1, a2, 0.5).mu2``.
    """
    a1, a2 = float(alpha1), float(alpha2)
    return 0.5 * (
        m * (m - 1.0) / (1.0 + 2.0 * a1)
        + (m - 1.0) * (m - 2.0) / (1.0 + 2.0 * a2)
        + 2.0 * m
        - 1.0
    )


def power_kernel_std_kurtosis(m: int, alpha: float) -> float:
    """Standardised kurtosis of the single-shape kernel on [0, 2m]."""
    a = float(alpha)
    num = 2.0 * (1.0 + a) * (
        3.0
        + 6.0 * (m - 1.0) * m * (2.0 + m * (m - 1.0))
        + 4.0 * a * (-4.0 + m * (11.0 + m * (6.0 * m - 11.0)))
        + 4.0 * a**2 * (5.0 + 2.0 * m * (3.0 * m - 5.0))
    )
    den = (3.0 + 2.0 * a) * (1.0 - 2.0 * a + 2.0 * m * (2.0 * a + m - 1.0)) ** 2
    return num / den


def power_kernel_fourth_moment(n: int, alpha: float) -> float:
    """Fourth-moment display in terms of n with m = (n^2 - n)/2 substituted.

    Transcribed as written; numerically this equals four times
    :func:`power_kernel_std_kurtosis` at m = (n^2 - n)/2, which the
    consistency report flags against the enumeration fourth moment.
    """
    a = float(alpha)
    t = float(n**2 - n)
    num = 2.0 * (a + 1.0) * (
        4.0 * a**2 * (t * (1.5 * t - 5.0) + 5.0)
        + 4.0 * a * (0.5 * t * (0.5 * t * (3.0 * t - 11.0) + 11.0) - 4.0)
        + 3.0 * t * (0.5 * t - 1.0) * (0.5 * t * (0.5 * t - 1.0) + 2.0)
        + 3.0
    )
    den = 0.5 * ((2.0 * a + 3.0) * (-2.0 * a + t * (2.0 * a + 0.5 * t - 1.0) + 1.0) ** 2)
    return 2.0 * num / den


def spearman_kurtosis_poly(n: int | float) -> float:
    """Cubic fit to the midrank-correlation null kurtosis as a function of n.

    Exceeds the Gaussian bound 3 for n above ~19, so the exact tabulated
    values are preferred wherever they exist; the fit is kept only so the
    consistency report can show how far it drifts from the table.
    """
    return -0.7561593 + 1.1482686 * n - 0.1240335 * n**2 + 0.0044051 * n**3


def _row(quantity: str, n: int | None = None, *, note: str = "", **values) -> dict:
    """Assemble one comparison row and auto-derive deviation and flag."""
    present = {k: v for k, v in values.items() if isinstance(v, (int, float))}
    deviation = None
    flag = "info"
    if len(present) >= 2:
        anchor_key = next(iter(present))
        anchor = present[anchor_key]
        scale = max(abs(v) for v in present.values())
        if scale > 0:
            deviation = max(abs(v - anchor) for v in present.values()) / scale
            flag = "agree" if deviation <= _AGREE_TOL else "deviates"
    row = {"quantity": quantity, "n": n}
    row.update(values)
    row["deviation"] = deviation
    row["flag"] = flag
    row["note"] = note
    return row


def consistency_report(max_oracle_n: int = 6) -> dict:
    """Build the full structured comparison table."""
    _check_n(max_oracle_n)
    oracle: dict[int, tuple[Fraction, Fraction]] = {
        n: exact_moments(n) for n in range(2, max_oracle_n + 1)
    }
    rows: list[dict] = []

    # --- null variance: closed form vs fitted curve vs table vs enumeration
    for n in sorted(NULL_STD_BY_N):
        extra: dict = {}
        note = ""
        if n in oracle:
            extra["oracle"] = float(oracle[n][0])
            note = f"oracle exact {oracle[n][0]}"
        if 27 <= n <= 35:
            extra["shifted_match"] = float(population_variance(n + 1))
            note = (
                "tabulated sd rows 27-35 are each displaced by one position "
                "(the printed value matches the n+1 closed form)"
            )
        elif n == 36:
            note = (
                "the tabulated sd here repeats the previous printed row yet "
                "matches the n = 36 closed form: the one-row displacement of "
                "rows 27-35 ends with this duplicate"
            )
        rows.append(
            _row(
                "null_variance",
                n,
                closed_form=float(population_variance(n)),
                fitted=variance_poly(n) if n >= 9 else None,
                tabulated=NULL_STD_BY_N[n] ** 2,
                note=note,
                **extra,
            )
        )

    # --- null kurtosis: fitted curve vs table (n >= 9)
    for n in sorted(NULL_EXCESS_KURTOSIS_BY_N):
        if n < 9:
            continue
        rows.append(
            _row(
                "null_kurtosis_fit_vs_table",
                n,
                fitted=kurtosis_poly(n),
                tabulated=NULL_EXCESS_KURTOSIS_BY_N[n],
                note="fitted curve is monotone only up to n ~ 94 "
                "(quadratic exponent turns)" if n >= 90 else "",
            )
        )

    # --- null kurtosis: table vs enumeration vs shape-implied value (small n)
    for n in range(2, max_oracle_n + 1):
        variance, std_kurt = oracle[n]
        implied = None
        if n >= 3:
            implied = implied_std_kurtosis(float(alpha_of_n(n))) - 3.0
        rows.append(
            _row(
                "null_kurtosis_table_vs_oracle",
                n,
                oracle=float(std_kurt) - 3.0,
                tabulated=NULL_EXCESS_KURTOSIS_BY_N.get(n),
                shape_implied=implied,
                note=f"oracle exact {std_kurt} - 3",
            )
        )

    # --- midrank-correlation kurtosis: fitted cubic vs exact table
    for n in sorted(SPEARMAN_STD_KURTOSIS_BY_N):
        rows.append(
            _row(
                "midrank_kurtosis_fit_vs_table",
                n,
                fitted=spearman_kurtosis_poly(n),
                tabulated=SPEARMAN_STD_KURTOSIS_BY_N[n],
                note="fitted cubic exceeds the Gaussian bound 3 above n ~ 19"
                if n == 19 else "",
            )
        )

    # --- mixture variance display vs closed form vs matched beta-binomial
    for n in range(3, max_oracle_n + 1):
        alpha = alpha_of_n(n)
        m = n * (n - 1) // 2
        rows.append(
            _row(
                "mixture_variance_vs_closed_form",
                n,
                closed_form=float(population_variance(n)),
                mixture=riffled_moments(m, float(alpha), float(alpha), 0.5).mu2,
                mixture_reduced=riffled_variance_mixture(m, float(alpha), float(alpha)),
                beta_binomial=float(beta_binomial_variance(n * n - n, alpha)),
                note="the equal-weight mixture display does not reduce to the "
                "closed-form variance; the plain beta-binomial at the same "
                "shape does, exactly",
            )
        )

    # --- mixture fourth moment vs enumeration
    for n in range(3, max_oracle_n + 1):
        alpha = float(alpha_of_n(n))
        m = n * (n - 1) // 2
        variance, std_kurt = oracle[n]
        mu4_oracle = float(std_kurt * variance * variance)
        rows.append(
            _row(
                "mixture_fourth_moment_vs_oracle",
                n,
                oracle=mu4_oracle,
                mixture=riffled_moments(m, alpha, alpha, 0.5).mu4,
                substituted_display=power_kernel_fourth_moment(n, alpha),
                note="the n-substituted display equals 4x the standardised "
                "kurtosis, not a raw fourth moment",
            )
        )

    # --- the n = 15 standardised cutoff
    rows.append(
        _row(
            "null_cutoff_n15",
            15,
            constructed=null_table(15).standardized_cutoff(0.05),
            tabulated=TWO_SIDED_CUTOFF_N15,
            note="the tabulated +/-1.8500 cutoff is reproduced by the n = 5 "
            f"construction instead ({null_table(5).standardized_cutoff(0.05):.4f})",
        )
    )

    # --- scale conventions that carry no numbers, documented as info rows
    rows.append(
        _row(
            "midrank_z_scaling",
            note="the ratio display rho/sqrt(n-1) has null variance ~ (n-1)^-2; "
            "tests calibrate with rho*sqrt(n-1) (unit variance) and only the "
            "reported statistic honours the ratio form",
        )
    )
    rows.append(
        _row(
            "distance_affine_vs_metric",
            note="the affine distance m + D - C exceeds the metric form "
            "2D + Tx + Ty by exactly the jointly-tied pair count; they "
            "coincide on tie-free data",
        )
    )

    # --- desk-scale substitutions
    for note in (
        "tied z comparison and continuous z table: the original 2,236-row "
        "ordinal source sample is unavailable; discretized (4-level) and "
        "continuous bivariate normal populations with matched rank "
        "correlation are substituted",
        "replication counts: source studies used 5,000-15,000 replications; "
        "desk-scale default is 2,000 (configurable upward)",
        "large-n distance distribution summaries: source used 3,294,172 "
        "sampled vectors; here closed forms plus exhaustive enumeration "
        f"(n <= {max_oracle_n}) stand in",
    ):
        rows.append(_row("substitution", note=note))

    return {
        "artifact_version": _version,
        "comparison_tolerance": _AGREE_TOL,
        "rows": rows,
    }


def render_text(report: dict) -> str:
    """Flat text rendering: one line per row plus flagged notes."""
    lines = [
        f"consistency report (artifact {report['artifact_version']}, "
        f"agree tolerance {report['comparison_tolerance']})",
    ]
    numeric_keys = (
        "closed_form", "fitted", "tabulated", "oracle", "mixture",
        "mixture_reduced", "beta_binomial", "shape_implied", "shifted_match",
        "constructed", "substituted_display",
    )
    for row in report["rows"]:
        n_txt = f" n={row['n']}" if row["n"] is not None else ""
        parts = [f"[{row['flag']:8s}] {row['quantity']}{n_txt}"]
        for key in numeric_keys:
            value = row.get(key)
            if isinstance(value, (int, float)):
                parts.append(f"{key}={value:.6g}")
        if row["deviation"] is not None:
            parts.append(f"dev={row['deviation']:.3g}")
        lines.append("  ".join(parts))
        if row["note"]:
            lines.append(f"           note: {row['note']}")
    counts = {}
    for row in report["rows"]:
        counts[row["flag"]] = counts.get(row["flag"], 0) + 1
    lines.append(
        "totals: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    return "\n".join(lines) + "\n"
