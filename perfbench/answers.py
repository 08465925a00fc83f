"""Known answers for the benchmark's verdicts.

Every verdict the benchmark times is judged against the tables here, never
against another output of the program.  Parameter samples are the admissible
samples of the test suite's catalog table, copied so that the benchmark does
not depend on the tests; the Newton targets are the published coefficient
tuples written out as exact rationals.
"""
from fractions import Fraction as F

# Admissible samples per family (b in {-1/2, 1, 3, 5} where allowed).
CATALOG_SAMPLES = {
    "u1":  [dict(b=3, mu=1), dict(b=1, mu=F(7, 10)), dict(b=5, mu=F(1, 2)), dict(b=F(-1, 2), mu=1)],
    "u2":  [dict(b=3, mu=1), dict(b=1, mu=F(7, 10)), dict(b=5, mu=F(1, 2)), dict(b=F(-1, 2), mu=1)],
    "u3":  [dict(b=3), dict(b=1), dict(b=5), dict(b=F(-1, 2))],
    "u4":  [dict(b=3), dict(b=1), dict(b=F(-1, 2))],
    "u5":  [dict(b=3), dict(b=1), dict(b=5)],
    "u6":  [dict(b=3), dict(b=1), dict(b=5), dict(b=F(-1, 2))],
    "u7":  [dict(b=3, a2=1), dict(b=1, a2=2), dict(b=F(-1, 2), a2=3)],
    "u8":  [dict(b=3, a2=1), dict(b=5, a2=F(1, 2)), dict(b=F(-1, 2), a2=-3)],
    "u9":  [dict(b=3, c2=-1), dict(b=1, c2=2), dict(b=5, c2=F(3, 2))],
    "u10": [dict(b=3, c2=-1), dict(b=1, c2=2), dict(b=F(-1, 2), c2=F(3, 2))],
    "u11": [dict(b=3, alpha=1, beta=2, gamma=1),
            dict(b=1, alpha=F(1, 2), beta=-2, gamma=2),
            dict(b=F(-1, 2), alpha=1, beta=2, gamma=1)],
    "u12": [dict(b=3, beta=1, gamma=-1), dict(b=1, beta=F(7, 10), gamma=2),
            dict(b=5, beta=1, gamma=1)],
    "u13": [dict(b=3, beta=1, gamma=-1), dict(b=1, beta=F(7, 10), gamma=2),
            dict(b=F(-1, 2), beta=1, gamma=1)],
    "u14": [dict(b=3, alpha=F(1, 4), gamma=F(1, 4)),
            dict(b=1, alpha=F(1, 8), gamma=F(1, 2)),
            dict(b=5, alpha=F(-1, 4), gamma=F(-1, 4))],
    "u15": [dict(b=3, alpha=F(1, 4), gamma=F(1, 4)),
            dict(b=1, alpha=F(1, 8), gamma=F(1, 2)),
            dict(b=F(-1, 2), alpha=F(1, 4), gamma=F(1, 4))],
    "u16": [dict(b=3, alpha=F(1, 2), gamma=F(1, 2)),
            dict(b=1, alpha=F(1, 4), gamma=1),
            dict(b=5, alpha=F(-1, 2), gamma=F(-1, 2))],
    "u17": [dict(b=3, alpha=F(1, 2), gamma=F(1, 2)),
            dict(b=1, alpha=F(1, 4), gamma=1),
            dict(b=F(-1, 2), alpha=F(1, 2), gamma=F(1, 2))],
    "u18": [dict(b=3, alpha=F(1, 2), gamma=F(1, 2)),
            dict(b=1, alpha=1, gamma=F(1, 4)),
            dict(b=5, alpha=F(1, 2), gamma=F(1, 2))],
    "u19": [dict(b=3, alpha=F(1, 2), gamma=F(1, 2)),
            dict(b=1, alpha=1, gamma=F(1, 4)),
            dict(b=F(-1, 2), alpha=F(1, 2), gamma=F(1, 2))],
    "u20": [dict(b=3, alpha=0, beta=1, gamma=1),
            dict(b=1, alpha=0, beta=F(1, 2), gamma=1),
            dict(b=F(-1, 2), alpha=-1, beta=1, gamma=1)],
    "u21": [dict(b=3, alpha=0, beta=1, gamma=1),
            dict(b=5, alpha=0, beta=F(1, 2), gamma=1),
            dict(b=F(-1, 2), alpha=-1, beta=1, gamma=1)],
    "u22": [dict(b=3, alpha=2, beta=3, gamma=1),
            dict(b=1, alpha=2, beta=3, gamma=1),
            dict(b=F(-1, 2), alpha=-2, beta=1, gamma=1)],
    "u23": [dict(b=3, alpha=2, beta=3, gamma=1),
            dict(b=5, alpha=2, beta=3, gamma=1),
            dict(b=F(-1, 2), alpha=-2, beta=1, gamma=1)],
    "cole_hopf": [dict(b=3, mu=1, branch=1),
                  dict(b=1, mu=F(7, 10), branch=-1, delta=F(3, 10)),
                  dict(b=F(-1, 2), mu=F(1, 2), branch=1, delta=F(-1, 5))],
}

# (family, sample index) pairs whose default-grid verification skips points
# because a pole line crosses the grid.
POLE_SAMPLES = frozenset([
    ("u4", 0), ("u4", 1),
    ("u5", 0), ("u5", 1), ("u5", 2),
    ("u9", 0), ("u10", 0),
    ("u11", 0), ("u11", 1),
    ("u14", 0), ("u14", 1), ("u14", 2),
    ("u15", 0), ("u15", 1),
])

VERIFY_TOL = 1e-7   # symbolic path
FD_TOL = 1e-4       # finite-difference path

# Pole-free samples: they skip no point and also pass the finite-difference
# path.
POLE_FREE_SAMPLES = {
    "u1": [0, 1, 2, 3], "u2": [0, 1, 2, 3], "u3": [0, 1, 2, 3],
    "u6": [0, 1, 2, 3], "u7": [0, 1, 2], "u9": [1, 2], "u10": [1],
    "u12": [0], "u13": [0], "u20": [0, 1], "u21": [0, 1], "u22": [0, 1],
    "u23": [0, 1], "cole_hopf": [0, 1, 2],
}

# verify-grid: the samples a seed may pick.  Only samples whose residual
# trees have the sizes below are listed, so the size counters repeat exactly
# whatever the seed; u14 is the pole family, the others are pole-free.
GRID_SAMPLES = {"u14": [0, 2], "u22": [0], "u7": [0], "cole_hopf": [0]}
# Size of each residual tree mdp_residual(u, b): (nodes counted along every
# path, structurally distinct nodes).
RESIDUAL_TREE_SIZES = {
    "u14": (1090, 71), "u22": (4491, 129), "u7": (3086, 108), "cole_hopf": (562, 64),
}
GRID_SHAPE = (1001, 101)
# The seed shifts the x window [-10, 10] by one of these and the t window
# [0, 2] by one of GRID_T_SHIFTS; every combination keeps the verdicts above.
GRID_X_SHIFTS = tuple(F(k, 8) for k in range(-8, 8))
GRID_T_SHIFTS = (F(0), F(1, 4), F(1, 2), F(3, 4))

# Criterion-3 instances (family, (alpha, beta, gamma, b)): every equation of
# the generated system vanishes exactly, as Fraction(0).
RATIONAL_INSTANCES = (
    ("u11", (1, 2, 1, 3)),
    ("u12", (0, 1, -1, 3)), ("u13", (0, 1, -1, 3)),
    ("u20", (0, 1, 0, 3)), ("u21", (0, 1, 0, 3)),
    ("u14", (F(1, 4), 0, F(1, 4), 3)), ("u15", (F(1, 4), 0, F(1, 4), 3)),
    ("u16", (F(1, 2), 0, F(1, 2), 3)), ("u17", (F(1, 2), 0, F(1, 2), 3)),
    ("u18", (F(1, 2), 0, F(1, 2), 3)), ("u19", (F(1, 2), 0, F(1, 2), 3)),
    ("u22", (2, 3, 1, 3)), ("u23", (2, 3, 1, 3)),
)

# Collocation certificates: every listed (family, b, free parameter) passes,
# and every single-coefficient bump of BUMP in COLLOCATION_FIELDS at b = 3
# fails.
COLLOCATION_BS = (F(-1, 2), F(1), F(3), F(5))
COLLOCATION_FREE = {
    "u7": [dict(a2=3), dict(a2=-3)], "u8": [dict(a2=3), dict(a2=-3)],
    "u9": [dict(c2=F(3, 2)), dict(c2=-2)], "u10": [dict(c2=F(3, 2)), dict(c2=-2)],
}
BUMP_FREE = {"u7": dict(a2=2), "u8": dict(a2=2), "u9": dict(c2=2), "u10": dict(c2=2)}
COLLOCATION_FIELDS = ("lam", "a0", "a1", "a2", "c1", "c2")
BUMP = F(1, 100)

# Kink branches: six-equation residuals below KINK_SYSTEM_TOL and a passing
# grid verification for both branches at each (b, mu).
KINK_CASES = ((3, 1.0), (1, 0.7), (-0.5, 0.5))
KINK_SYSTEM_TOL = 1e-9

# Riccati triples: classify() returns the case drawn for, and the residual
# phi' - (alpha + beta*phi + gamma*phi^2) stays below RICCATI_TOL on
# RICCATI_POINTS points of [-3, 3] away from poles (|guard| > RICCATI_POLE_EPS).
RICCATI_TRIPLES_PER_CASE = 4
RICCATI_POINTS = 200
RICCATI_POLE_EPS = 1e-2
RICCATI_TOL = 1e-9

# Multistart Newton: at each case, the published tuples (a0, a1, a2, c1, c2,
# lam) appear among the roots within NEWTON_TOL.  The seed count per call
# keeps the chance that one call misses a tuple near 5e-5: from 1500
# single-seed draws per case, one draw lands on u11 with probability 0.081,
# u12 0.055, u13 0.099, u16 0.049, u17 0.046, u18 0.083, u19 0.098.
# Left out: u14/u15 (the third case at alpha = gamma = 1/4 is missed at some
# rng seeds, e.g. rng_seed=1 with 400 seeds), and the fourth case u20-u23
# (gamma = 0 gives a continuum of constant roots, and the u22/u23
# coefficients c1 = 45 lie outside the +-20 seed box).
NEWTON_TOL = 1e-8
NEWTON_WARMUP_SEEDS = 4
NEWTON_CASES = (
    ("first", dict(alpha=F(1), beta=F(2), gamma=F(1), b=F(3)), 120,
     {"u11": (F(13, 2), 0, 0, F(15), F(15, 2), F(-4))}),
    ("second", dict(alpha=F(0), beta=F(1), gamma=F(-1), b=F(3)), 180,
     {"u12": (0, F(-15, 2), F(15, 2), 0, 0, F(-5, 2)),
      "u13": (F(1, 4), F(-15, 2), F(15, 2), 0, 0, F(-3, 2))}),
    ("third", dict(alpha=F(1, 2), beta=F(0), gamma=F(1, 2), b=F(3)), 220,
     {"u16": (F(5, 8), 0, 0, 0, F(15, 8), F(-5, 2)),
      "u17": (F(5, 8), 0, F(15, 8), 0, 0, F(-5, 2)),
      "u18": (F(7, 8), 0, 0, 0, F(15, 8), F(-3, 2)),
      "u19": (F(7, 8), 0, F(15, 8), 0, 0, F(-3, 2))}),
)

# README commands with the exit code the README gives for each.  Reports go
# to stdout (the README's `--out` files are left out, so nothing is written).
# `pipeline solve` uses SOLVE_SEEDS seeds instead of 400 so that Newton does
# not swamp the run; the workload seed is its --rng-seed and equiv's --seed.
SOLVE_SEEDS = 20
CLI_COMMANDS = (
    ("catalog_list", ["catalog", "list"], 0),
    ("verify_u6", ["verify", "--family", "u6", "--param", "b=3"], 0),
    ("verify_u5", ["verify", "--family", "u5", "--param", "b=3"], 0),
    ("verify_u1_mu2", ["verify", "--family", "u1", "--param", "b=3", "--param", "mu=2"], 2),
    ("verify_u6_fd", ["verify", "--family", "u6", "--param", "b=3",
                      "--method", "finite-difference"], 0),
    ("riccati", ["riccati", "--param", "alpha=1", "--param", "beta=2", "--param", "gamma=1"], 0),
    ("cole_hopf", ["cole-hopf", "--branch", "plus", "--param", "b=3", "--param", "mu=1"], 0),
    ("rh", ["rh", "--family", "u7", "--param", "b=3", "--param", "a2=1"], 0),
    ("pipeline_generate", ["pipeline", "generate"], 0),
    ("pipeline_check", ["pipeline", "check", "--case", "first", "--param", "b=3",
                        "--param", "alpha=1", "--param", "beta=2", "--param", "gamma=1"], 0),
    ("pipeline_solve", ["pipeline", "solve", "--param", "b=3", "--param", "alpha=0",
                        "--param", "beta=1", "--param", "gamma=-1",
                        "--seeds", str(SOLVE_SEEDS), "--rng-seed", "{seed}"], 0),
    ("equiv", ["equiv", "--left", "u3", "--left-param", "b=3", "--right", "u1",
               "--right-param", "b=3", "--right-param", "mu=1", "--seed", "{seed}"], 0),
    ("plot_data", ["plot-data", "--family", "u6", "--param", "b=3", "--t", "0"], 0),
)
