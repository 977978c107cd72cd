"""Tabulated reference anchors for the rank-statistic sampling distributions.

Fixed numerical tables used by the consistency report and the regression
tests.  Small-``n`` entries come from exhaustive enumeration of the tied
permutation population; larger ``n`` entries are large-scale simulation
summaries.  Values are transcribed verbatim and never recomputed here, so
that the closed-form routines in :mod:`kemeny_stat.null_models` can be
checked against them rather than against themselves.
"""

from __future__ import annotations

__all__ = [
    "NULL_DISTANCE_SUMMARIES",
    "NULL_STD_BY_N",
    "NULL_EXCESS_KURTOSIS_BY_N",
    "SPEARMAN_STD_KURTOSIS_BY_N",
    "TWO_SIDED_CUTOFF_N15",
    "TIED_Z_SUMMARIES",
    "SPEARMAN_Z_SUMMARIES",
    "CORRELATION_SPREADS",
]

# Null distribution of the centred concordance count S = C - D for one pair
# of independent columns, by sample size: n -> (mean, sd, excess kurtosis).
# Enumerated exactly for n <= 8, simulated (3,294,172 draws) beyond that.
NULL_DISTANCE_SUMMARIES: dict[int, tuple[float, float, float]] = {
    2: (0.000, 0.707, -1.875),
    3: (0.000, 1.610, -1.171),
    4: (0.000, 2.646, -0.747),
    5: (0.000, 3.795, -0.548),
    6: (0.000, 5.046, -0.432),
    7: (0.000, 6.392, -0.356),
    8: (0.000, 7.826, -0.302),
    9: (0.000, 9.345, -0.259),
    10: (0.006, 10.939, -0.230),
    11: (0.009, 12.622, -0.212),
    12: (-0.007, 14.352, -0.191),
    13: (-0.017, 16.168, -0.173),
    14: (0.006, 18.064, -0.161),
    15: (-0.010, 19.996, -0.148),
    16: (-0.025, 22.005, -0.141),
    17: (0.001, 24.066, -0.131),
    18: (0.010, 26.216, -0.122),
    19: (-0.021, 28.386, -0.117),
    20: (0.025, 30.645, -0.105),
    21: (0.006, 32.942, -0.105),
    22: (0.008, 35.272, -0.096),
    23: (0.031, 37.694, -0.096),
    24: (-0.012, 40.155, -0.095),
    25: (0.002, 42.647, -0.091),
    26: (0.019, 45.183, -0.083),
    27: (-0.066, 50.477, -0.080),
    28: (0.040, 53.177, -0.076),
    29: (0.040, 55.900, -0.075),
    30: (0.046, 58.674, -0.072),
    31: (0.011, 61.506, -0.069),
    32: (0.043, 64.418, -0.066),
    33: (0.014, 67.287, -0.061),
    34: (0.082, 70.272, -0.062),
    35: (-0.016, 73.262, -0.065),
    36: (-0.036, 73.262, -0.057),
    37: (-0.005, 76.255, -0.063),
    38: (0.010, 79.419, -0.060),
    40: (-0.035, 85.764, -0.058),
    45: (-0.052, 102.107, -0.052),
    50: (0.035, 119.342, -0.043),
    55: (0.075, 137.645, -0.039),
    60: (0.057, 156.656, -0.036),
    62: (-0.100, 164.530, -0.039),
    64: (-0.020, 172.447, -0.039),
    68: (-0.032, 188.808, -0.030),
    75: (0.042, 218.527, -0.026),
    80: (-0.066, 240.736, -0.023),
    85: (0.0643, 263.268, -0.0274),
    92: (0.144, 296.597, -0.023),
    96: (0.155, 315.766, -0.0276),
    100: (-0.038, 335.703, -0.024),
    105: (0.0280, 360.907, -0.022),
    125: (0.021, 468.456, -0.013),
    225: (-0.056, 1127.979, -0.013),
}

NULL_STD_BY_N: dict[int, float] = {
    n: row[1] for n, row in NULL_DISTANCE_SUMMARIES.items()
}

NULL_EXCESS_KURTOSIS_BY_N: dict[int, float] = {
    n: row[2] for n, row in NULL_DISTANCE_SUMMARIES.items()
}

# Standardised kurtosis (mu4 / mu2^2) of the null distribution of the
# midrank correlation rho_S, per sample size, from exact enumeration.
SPEARMAN_STD_KURTOSIS_BY_N: dict[int, float] = {
    2: 1.0,
    3: 1.5,
    4: 1.84182,
    5: 2.077129,
    6: 2.234365,
    7: 2.34464,
    8: 2.42575,
    9: 2.489407,
    10: 2.539668,
    11: 2.580637,
    12: 2.619854,
    13: 2.643464,
    14: 2.671357,
    15: 2.695132,
    16: 2.713222,
    17: 2.728253,
    18: 2.745692,
    19: 2.762238,
}

# Tabulated two-sided 5% cutoff for the standardised n = 15 null.  The
# lattice construction in null_models yields +/- 1.95 instead; the gap is
# surfaced in the consistency report rather than hidden.
TWO_SIDED_CUTOFF_N15: float = 1.8500

# Simulation summaries (5,000 replications) of the two z statistics on
# heavily tied bivariate data with a fixed negative dependence:
# n -> (mean, sd), keyed by statistic family.
TIED_Z_SUMMARIES: dict[str, dict[int, tuple[float, float]]] = {
    "kendall_b": {
        15: (-1.39, 0.98),
        25: (-1.87, 0.94),
        100: (-3.84, 0.93),
        250: (-6.07, 0.90),
        1250: (-13.607, 0.972),
        2236: (-18.207, 0.961),
    },
    "kemeny": {
        15: (-1.23, 0.87),
        25: (-1.67, 0.85),
        100: (-3.50, 0.85),
        250: (-5.55, 0.83),
        1250: (-12.480, 0.894),
        2236: (-16.705, 0.885),
    },
}

# Simulation summaries for the variance-calibrated midrank-correlation z on
# continuous bivariate normal data with population rho_S = -0.3706851:
# n -> (mean, sd).
SPEARMAN_Z_SUMMARIES: dict[int, tuple[float, float]] = {
    15: (-1.3597, 0.9473),
    25: (-1.8103, 0.9218),
    100: (-3.6803, 0.9337),
    250: (-5.839, 0.9227),
    1250: (-13.092, 0.929),
    2236: (-17.52, 0.93),
}

# Sampling spread of the correlation estimators themselves around a zero
# population value (15,000 replications): n -> estimator -> (mean, sd).
CORRELATION_SPREADS: dict[int, dict[str, tuple[float, float]]] = {
    30: {
        "pearson": (-0.00262, 0.18525),
        "spearman": (-0.00281, 0.18562),
        "kemeny_rho": (-0.00281, 0.18562),
        "kemeny_tau": (-0.00200, 0.12805),
        "kendall_b": (-0.00207, 0.13245),
        "arcsine_r": (-0.00184, 0.12032),
    },
    150: {
        "pearson": (0.00071, 0.08212),
        "spearman": (0.00080, 0.08208),
        "kemeny_rho": (0.00080, 0.08208),
        "kemeny_tau": (0.00051, 0.05516),
        "kendall_b": (0.00052, 0.05553),
        "arcsine_r": (0.00051, 0.05244),
    },
    500: {
        "pearson": (0.00012, 0.04484),
        "spearman": (0.00015, 0.04487),
        "kemeny_rho": (0.00015, 0.04487),
        "kemeny_tau": (0.00009, 0.02999),
        "kendall_b": (0.00009, 0.03005),
        "arcsine_r": (0.00009, 0.02860),
    },
}
