"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s`). The
threshold table runs bisection at 1e-5, comfortably inside the +/-2e-5
assertion band, in one `thresholds` call; the full module takes about two
minutes on two cores.
"""

import numpy as np

from oracles import check_count, punctured_count, transfer_f, transfer_f_oracle, transmitted_count
from scmn.channel import (
    ChannelFamily,
    capacity,
    dimension_distribution,
)
from scmn.de import ebp_trace, fold, run_de, thresholds, trajectory
from scmn.ensemble import EnsembleParams, design_rate, design_rate_exact
from scmn.gf2 import enumerate_subspaces, gbinom
from scmn.sim import ERASED, detector_messages, run_experiment
from test_sim import detector_oracle

P10W2 = EnsembleParams(dl=4, dr=2, dg=2, L=10, w=2)
P20W3 = EnsembleParams(dl=4, dr=2, dg=2, L=20, w=3)
P20W2 = EnsembleParams(dl=4, dr=2, dg=2, L=20, w=2)

# 8-decimal reference thresholds for (dl, dr, dg) = (4, 2, 2)
REF_L10_W2 = {
    ("cd", 1): 0.49998527, ("cd", 2): 0.49950900, ("cd", 3): 0.49913150,
    ("cd", 4): 0.49714179, ("cd", 5): 0.49566948, ("cd", 6): 0.49166023,
    ("bd", 1): 0.49998527, ("bd", 2): 0.49987196, ("bd", 3): 0.49954538,
    ("bd", 4): 0.49885380, ("bd", 5): 0.49768392, ("bd", 6): 0.49596851,
}

TABLE_BISECT_TOL = 1e-5
_table: dict = {}


def table_threshold(kind: str, m: int) -> float:
    """ε* of one cell of the L=10/w=2 table, computed with the whole table."""
    if not _table:
        _table.update(thresholds(P10W2, REF_L10_W2, bisect_tol=TABLE_BISECT_TOL))
    return _table[kind, m]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def leftmost_epsilon(params, kind, m, coarse=0.01, fine=2e-4, halfwidth=0.03):
    """Smallest channel parameter on the traced curve, with local refinement
    of the chi grid around the coarse minimum."""
    pts = ebp_trace(params, kind, m, np.arange(0.95, 0.02, -coarse))
    best = min(pts, key=lambda p: p.epsilon)
    hi = min(0.999, best.chi + halfwidth)
    lo = max(1e-3, best.chi - halfwidth)
    pts2 = ebp_trace(params, kind, m, np.arange(hi, lo, -fine))
    return min(best.epsilon, min(p.epsilon for p in pts2))


def test_criterion_01_threshold_table_L10_w2():
    diffs = {}
    for (kind, m), ref in REF_L10_W2.items():
        diffs[(kind, m)] = abs(table_threshold(kind, m) - ref)
    worst = max(diffs.values())
    report(
        1,
        worst <= 2e-5,
        f"12 thresholds at L=10/w=2 within 2e-5 of reference "
        f"(worst |diff| = {worst:.2e})",
    )


def test_fold_inside_the_final_bracket_L10_w2():
    # Bisection from [0, 1] to TABLE_BISECT_TOL ends on a bracket of width
    # 2**-17, centred on ε*; each cell's fold lies inside it.
    for kind, m in REF_L10_W2:
        eps_star = table_threshold(kind, m)
        assert abs(fold(P10W2, kind, m) - eps_star) <= 2.0**-18


def test_criterion_02_threshold_table_L20_w3_directional():
    # All 18 checks run as lockstep rows of one run_de call; each row is
    # decided, bit for bit, as its own run would be.
    checks = []
    for kind, m in REF_L10_W2:
        checks.append((kind, m, table_threshold(kind, m) + 1e-6, "L10/w2 value"))
        if m <= 3:
            checks.append((kind, m, 0.49999, "0.49999"))
    runs = run_de(P20W3, [ChannelFamily(kind, m, eps) for kind, m, eps, _ in checks])
    details = [
        f"{kind} m={m} not above {bound}"
        for res, (kind, m, _, bound) in zip(runs, checks)
        if not res.success
    ]
    report(
        2,
        not details,
        "L=20/w=3 thresholds exceed every L=10/w=2 value and exceed 0.49999 "
        "for m <= 3" + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_03_transfer_oracle_equivalence():
    worst = 0.0
    for m in (1, 2, 3):
        for kind in ("cd", "bd"):
            for eps in np.arange(0.1, 0.95, 0.1):
                dist = dimension_distribution(ChannelFamily(kind, m, float(eps)))
                for z in np.linspace(0.0, 1.0, 11):
                    worst = max(
                        worst,
                        abs(transfer_f(dist, float(z)) - transfer_f_oracle(dist, float(z))),
                    )
    report(3, worst < 1e-12, f"transfer function vs oracle, max |diff| = {worst:.2e}")


def test_criterion_04_single_bit_reduction():
    exact = True
    for kind in ("cd", "bd"):
        for eps in np.arange(0.05, 1.0, 0.05):
            dist = dimension_distribution(ChannelFamily(kind, 1, float(eps)))
            for z in np.linspace(0.0, 1.0, 11):
                exact &= transfer_f(dist, float(z)) == float(eps)
    th_cd = table_threshold("cd", 1)
    th_bd = table_threshold("bd", 1)
    ok = exact and th_cd == th_bd and abs(th_cd - 0.49998527) <= 2e-5
    report(
        4,
        ok,
        f"m=1 transfer is exactly eps for all z; threshold {th_cd:.8f} "
        f"(cd == bd: {th_cd == th_bd})",
    )


def test_criterion_05_capacity_identities():
    worst = 0.0
    for m in range(1, 7):
        for kind in ("cd", "bd"):
            for eps in np.arange(0.1, 0.95, 0.1):
                cap = capacity(dimension_distribution(ChannelFamily(kind, m, float(eps))))
                worst = max(worst, abs(cap - (1.0 - float(eps))))
    report(5, worst < 1e-12, f"capacity == 1 - eps, max |diff| = {worst:.2e}")


def test_criterion_06_rate_formulas():
    ok = abs(design_rate(P10W2) - 0.45833333333333333) <= 1e-12
    rng = np.random.default_rng(12)
    for _ in range(50):
        params = EnsembleParams(
            dl=int(rng.integers(1, 7)), dr=int(rng.integers(1, 7)),
            dg=int(rng.integers(1, 7)), L=int(rng.integers(0, 13)),
            w=int(rng.integers(1, 6)),
        )
        M = int(rng.integers(1, 50))
        vt = transmitted_count(params, M)
        ok &= vt + punctured_count(params, M) - check_count(params, M) == (
            design_rate_exact(params) * vt
        )
    gaps = [
        abs(design_rate(EnsembleParams(4, 2, 2, L, 2)) - 0.5)
        for L in (10, 100, 1000, 10000)
    ]
    ok &= all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 1e-3
    report(
        6,
        ok,
        f"design rate 11/24 at L=10/w=2, exact rate identity on 50 tuples, "
        f"rate -> 1/2 (gap {gaps[-1]:.1e} at L=10000)",
    )


def test_criterion_07_curve_leftmost_matches_threshold():
    left10 = leftmost_epsilon(P10W2, "cd", 2)
    left20 = leftmost_epsilon(P20W2, "cd", 2)
    th = table_threshold("cd", 2)
    ok = abs(left10 - th) <= 1e-4 and abs(left10 - left20) <= 1e-5
    report(
        7,
        ok,
        f"leftmost curve point {left10:.8f} vs threshold {th:.8f} "
        f"(|diff| = {abs(left10 - th):.1e}); L=10 vs L=20 leftmost "
        f"|diff| = {abs(left10 - left20):.1e}",
    )


def test_criterion_08_wiggle_mitigation():
    gap_w2 = 0.5 - leftmost_epsilon(P10W2, "cd", 6)
    gap_w3 = 0.5 - leftmost_epsilon(P20W3, "cd", 6)
    report(
        8,
        gap_w2 >= 10 * gap_w3,
        f"m=6 leftmost gap to 1/2: {gap_w2:.3e} at w=2/L=10 vs {gap_w3:.3e} "
        f"at w=3/L=20 (ratio {gap_w2 / gap_w3:.1f}x >= 10x)",
    )


def test_criterion_09_de_monte_carlo_concentration():
    _, Q = trajectory(P10W2, ChannelFamily.concentrated(2, 0.45), 30)
    q0 = Q[:, P10W2.L]
    row = run_experiment(P10W2, 2000, "cd", 2, [0.45], 100, 987654321)[0]
    emp = np.array(row.q_trajectory_mean)
    n_messages = 100 * P10W2.dg * 2000
    worst_se = 0.0
    for ell in range(31):
        e = emp[ell] if ell < len(emp) else emp[-1]
        se = max(np.sqrt(q0[ell] * (1 - q0[ell]) / n_messages), 1e-12)
        worst_se = max(worst_se, abs(e - q0[ell]) / se)
    row40 = run_experiment(P10W2, 504, "cd", 2, [0.40], 100, 20260808)[0]
    ok = worst_se <= 3.0 and row40.n_fully_decoded >= 99
    report(
        9,
        ok,
        f"trajectory within {worst_se:.2f} binomial SEs of DE over 30 "
        f"iterations; {row40.n_fully_decoded}/100 seeds decode fully at "
        f"eps=0.40, M=504",
    )


def test_criterion_10_combinatorial_oracles():
    ok = True
    for m in range(1, 5):
        for d in range(m + 1):
            ok &= len(enumerate_subspaces(m, d)) == gbinom(m, d)
    rng = np.random.default_rng(424242)
    checked = 0
    for _ in range(10_000):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(0, m + 1))
        subs = enumerate_subspaces(m, d)
        V = subs[int(rng.integers(0, len(subs)))]
        truth = list(V.vectors())[int(rng.integers(0, 2**d))]
        mask = rng.integers(0, 2, size=m)
        incoming = [truth >> t & 1 if mask[t] else ERASED for t in range(m)]
        ok &= detector_messages(V, incoming) == detector_oracle(V, incoming)
        checked += 1
    report(
        10,
        ok,
        f"subspace counts match enumeration for m <= 4; detector matches the "
        f"candidate-enumeration oracle on {checked} random cases",
    )
