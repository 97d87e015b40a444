"""End-to-end acceptance checks.

Each test prints a single pass/fail line for its criterion so the suite
output doubles as an acceptance report. Run with `pytest -s` to see the
lines interleaved, or read them from the captured output on failure.
"""

import dataclasses
import json

import numpy as np
import pytest
from test_ingest import grid_of

from forestpanel.cli import main as cli_main
from forestpanel.dgp import DGPConfig, replication_seed, simulate_dynamic_panel
from forestpanel.diagnostics import ar_test, durbin_watson, hansen_j, jarque_bera
from forestpanel.estimators import (
    CONST,
    FitResult,
    RegressionSpec,
    fit_dynamic_lsdv,
    fit_pooled_ols,
    fit_twoway_fe,
    long_run_elasticity,
)
from forestpanel.gmm import GmmOptions, fit_diff_gmm, fit_sys_gmm
from forestpanel.ingest import EmissionFactors, Pixel, pixel_panel, write_panel_csv
from forestpanel.panel import Grid, PanelDataset


def report(name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {verdict}{suffix}")
    assert ok, f"{name} failed{suffix}"


def stub_fit(beta, rho, vcov):
    return FitResult(
        estimator_tag="stub",
        coef_names=("l", "e_l1"),
        coefficients={"l": beta, "e_l1": rho},
        vcov=np.asarray(vcov, float),
        n_obs=100,
    )


SPEC = RegressionSpec("e", ("l",))


def test_criterion_1_long_run_elasticity():
    fit = stub_fit(1.3210, -0.0110, np.diag([0.1**2, 0.05**2]))
    result = long_run_elasticity(fit, "l", "e_l1")
    ok = abs(result.long_run - 1.3066) < 5e-4
    report("1 long-run elasticity 1.3066",
           ok, f"got {result.long_run:.4f}")


def test_criterion_2_calibrated_lsdv_recovery():
    beta, rho = 1.32, -0.01
    sigma_u = np.sqrt(0.15 * beta**2 / (1 - rho**2 - 0.15))
    cfg = DGPConfig(n_regions=200, n_years=23, rho=rho, beta=beta,
                    sigma_alpha=1.0, sigma_u=sigma_u, seed=900)
    betas, r2s = [], []
    for r in range(100):
        sub = dataclasses.replace(cfg, seed=replication_seed(cfg.seed, r))
        panel, _ = simulate_dynamic_panel(sub)
        fit = fit_dynamic_lsdv(panel, SPEC)
        betas.append(fit.coefficients["l"])
        r2s.append(fit.within_r2)
    mean_beta, mean_r2 = np.mean(betas), np.mean(r2s)
    ok = abs(mean_beta - beta) < 0.03 and abs(mean_r2 - 0.85) < 0.03
    report("2 calibrated LSDV beta and within-R2",
           ok, f"mean beta {mean_beta:.4f}, mean R2 {mean_r2:.4f}")


def dummy_ols_coefficients(panel, spec):
    """Independent oracle: OLS on explicit region and year dummy columns."""
    y = panel.var(spec.response).values.ravel()
    N, T = panel.N, panel.T
    columns = [panel.var(name).values.ravel() for name in spec.regressors]
    columns.append(np.ones(N * T))
    for i in range(1, N):
        d = np.zeros((N, T))
        d[i, :] = 1.0
        columns.append(d.ravel())
    for t in range(1, T):
        d = np.zeros((N, T))
        d[:, t] = 1.0
        columns.append(d.ravel())
    X = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return coef[: len(spec.regressors)]


def test_criterion_3_fe_matches_dummy_ols():
    rng = np.random.default_rng(901)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(3, 11))
        T = int(rng.integers(3, 9))
        k = int(rng.integers(1, 3))
        names = [f"x{j}" for j in range(k)]
        variables = {n: Grid.full(rng.normal(size=(N, T))) for n in names}
        y = rng.normal(size=(N, 1)) + rng.normal(size=(1, T)) + rng.normal(size=(N, T))
        for j, n in enumerate(names):
            y = y + (0.5 + j) * variables[n].values
        variables["y"] = Grid.full(y)
        panel = PanelDataset(
            tuple(f"r{i}" for i in range(N)), tuple(range(2001, 2001 + T)), variables
        )
        spec = RegressionSpec("y", tuple(names))
        fit = fit_twoway_fe(panel, spec)
        oracle = dummy_ols_coefficients(panel, spec)
        got = np.array([fit.coefficients[n] for n in names])
        worst = max(worst, float(np.abs(got - oracle).max()))
    report("3 FE equals dummy OLS on 50 random panels",
           worst < 1e-8, f"max abs diff {worst:.2e}")


def test_criterion_4_nickell_bias_demonstration():
    cfg = DGPConfig(n_regions=500, n_years=6, rho=0.5, beta=1.0,
                    sigma_alpha=1.0, sigma_u=1.0, seed=902)
    lsdv_rhos, gmm_rhos = [], []
    for r in range(200):
        sub = dataclasses.replace(cfg, seed=replication_seed(cfg.seed, r))
        panel, _ = simulate_dynamic_panel(sub)
        lsdv_rhos.append(fit_dynamic_lsdv(panel, SPEC).coefficients["e_l1"])
        gmm_rhos.append(
            fit_diff_gmm(panel, SPEC, GmmOptions()).coefficients["e_l1"]
        )
    m_lsdv, m_gmm = np.mean(lsdv_rhos), np.mean(gmm_rhos)
    ok = m_lsdv < 0.45 and 0.45 <= m_gmm <= 0.55
    report("4 Nickell bias: LSDV down, diff GMM centered",
           ok, f"LSDV {m_lsdv:.3f}, diff GMM {m_gmm:.3f}")


def test_criterion_5_noise_free_exactness():
    worst = 0.0

    def check(fit, expected):
        nonlocal worst
        for name, value in expected.items():
            worst = max(worst, abs(fit.coefficients[name] - value))

    static = DGPConfig(n_regions=40, n_years=8, rho=0.0, beta=1.5,
                       sigma_alpha=0.0, sigma_gamma=0.0, sigma_u=0.0, seed=903)
    panel, _ = simulate_dynamic_panel(static)
    check(
        fit_pooled_ols(panel, RegressionSpec("e", (CONST, "l"))),
        {"l": 1.5, CONST: 0.0},
    )

    fe_cfg = dataclasses.replace(static, sigma_alpha=1.0, sigma_gamma=0.5, seed=904)
    panel, _ = simulate_dynamic_panel(fe_cfg)
    check(
        fit_twoway_fe(panel, SPEC),
        {"l": 1.5},
    )

    dyn = DGPConfig(n_regions=40, n_years=8, rho=0.3, beta=1.5,
                    sigma_alpha=1.0, sigma_gamma=0.5, sigma_u=0.0, seed=905)
    panel, _ = simulate_dynamic_panel(dyn)
    check(fit_dynamic_lsdv(panel, SPEC), {"l": 1.5, "e_l1": 0.3})

    diff_cfg = dataclasses.replace(dyn, sigma_gamma=0.0, seed=906)
    panel, _ = simulate_dynamic_panel(diff_cfg)
    check(fit_diff_gmm(panel, SPEC, GmmOptions(two_step=True)),
          {"l": 1.5, "e_l1": 0.3})

    sys_cfg = dataclasses.replace(diff_cfg, sigma_alpha=0.0, seed=907)
    panel, _ = simulate_dynamic_panel(sys_cfg)
    check(fit_sys_gmm(panel, SPEC, GmmOptions(two_step=True)),
          {"l": 1.5, "e_l1": 0.3})

    report("5 noise-free exactness for all five estimators",
           worst <= 1e-6, f"max abs error {worst:.2e}")


def test_criterion_6_diagnostic_calibration():
    cfg = DGPConfig(n_regions=500, n_years=7, rho=0.4, beta=1.0,
                    sigma_alpha=1.0, sigma_u=1.0, seed=908)
    ar1_rej = ar2_rej = hansen_rej = 0
    R = 200
    for r in range(R):
        sub = dataclasses.replace(cfg, seed=replication_seed(cfg.seed, r))
        panel, _ = simulate_dynamic_panel(sub)
        fit = fit_diff_gmm(panel, SPEC, GmmOptions(two_step=True))
        ar1_rej += ar_test(fit, 1).p_value < 0.05
        ar2_rej += ar_test(fit, 2).p_value < 0.05
        hansen_rej += hansen_j(fit).p_value < 0.05
    ar1, ar2, hansen = ar1_rej / R, ar2_rej / R, hansen_rej / R
    ok = ar1 > 0.90 and 0.02 <= ar2 <= 0.09 and 0.02 <= hansen <= 0.10
    report("6 AR(1)/AR(2)/Hansen rejection rates",
           ok, f"AR1 {ar1:.2f}, AR2 {ar2:.2f}, Hansen {hansen:.3f}")


def test_criterion_7_diagnostic_fixtures():
    checks = []
    checks.append(durbin_watson(Grid.full([[2.0, 2.0, 2.0, 2.0]])) == 0.0)
    dw = durbin_watson(Grid.full([[1.0, -1.0, 1.0, -1.0]]))
    checks.append(abs(dw - 3.0) < 1e-12)

    c = np.sqrt(6 + np.sqrt(50))
    sample = np.array([1.0] * 4 + [-1.0] * 4 + [c, -c])
    checks.append(abs(jarque_bera(sample).statistic) < 1e-10)

    cfg = DGPConfig(n_regions=100, n_years=5, rho=0.4, beta=1.0,
                    sigma_alpha=1.0, sigma_u=0.8, seed=909)
    panel, _ = simulate_dynamic_panel(cfg)
    fit = fit_diff_gmm(panel, SPEC,
                       GmmOptions(min_lag=2, max_lag=2, collapse=True))
    just_identified = fit.gmm.n_instruments == len(fit.coef_names)
    checks.append(just_identified and hansen_j(fit).statistic <= 1e-8)

    report("7 DW/JB/Hansen fixtures",
           all(checks), f"checks {['ok' if c else 'BAD' for c in checks]}")


def test_criterion_8_aggregation_oracle_and_properties():
    rng = np.random.default_rng(910)
    pixels = []
    for i in range(300):
        pixels.append(Pixel(
            pixel_id=f"p{i}",
            region=f"reg{int(rng.integers(0, 8))}",
            biomass_density=float(rng.uniform(0, 400)),
            pixel_area=float(rng.uniform(0.01, 1.0)),
            canopy_density=float(rng.uniform(0, 100)),
        ))
    years = tuple(range(2001, 2011))
    events = frozenset(
        (p.pixel_id, int(rng.choice(years)))
        for p in pixels if rng.random() < 0.6
    )
    grid = grid_of(pixels, events)
    theta = 44.0 / 12.0
    panel = pixel_panel(grid, EmissionFactors(theta), years)

    # independent brute-force tally over (pixel, year) pairs
    by_pixel = {p.pixel_id: p for p in pixels}
    ok = True
    for gi, region in enumerate(panel.regions):
        for gj, year in enumerate(panel.years):
            loss = emis = 0.0
            for pixel_id, event_year in sorted(events):
                p = by_pixel[pixel_id]
                if p.region == region and event_year == year:
                    loss += p.pixel_area
                    emis += p.biomass_density * p.pixel_area * theta
            ok &= panel.var("L").values[gi, gj] == pytest.approx(loss, abs=1e-10)
            ok &= panel.var("E").values[gi, gj] == pytest.approx(emis, abs=1e-10)

    # theta-scaling: emissions scale linearly in theta
    doubled = pixel_panel(grid, EmissionFactors(2 * theta), years)
    scale_err = np.abs(doubled.var("E").values - 2 * panel.var("E").values).max()

    # partition-additivity: splitting the grid and summing matches the whole
    half_ids = {p.pixel_id for p in pixels[:150]}
    first = grid_of(pixels[:150], [e for e in events if e[0] in half_ids])
    second = grid_of(pixels[150:], [e for e in events if e[0] not in half_ids])
    total = np.zeros((len(panel.regions), len(years)))
    for part in (first, second):
        sub = pixel_panel(part, EmissionFactors(theta), years)
        for gi, region in enumerate(sub.regions):
            total[panel.regions.index(region)] += sub.var("L").values[gi]
    part_err = np.abs(total - panel.var("L").values).max()

    ok = ok and scale_err <= 1e-10 and part_err <= 1e-10
    report("8 zonal aggregation oracle and properties",
           ok, f"theta err {scale_err:.1e}, partition err {part_err:.1e}")


def test_criterion_9_cli_determinism(tmp_path):
    cfg = DGPConfig(n_regions=25, n_years=10, rho=0.3, beta=1.0,
                    sigma_alpha=1.0, sigma_u=0.5, seed=911)
    panel, _ = simulate_dynamic_panel(cfg)
    src = tmp_path / "panel.csv"
    write_panel_csv(panel, src)
    mc_config = {
        "dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0,
                "sigma_alpha": 1.0, "sigma_u": 1.0},
        "estimators": ["diffgmm"],
        "replications": 5,
    }
    (tmp_path / "mc.json").write_text(json.dumps(mc_config))

    runs = [
        ["estimate", "--panel", str(src), "--estimator", "all", "--two-step"],
        ["robustness", "--panel", str(src), "--estimator", "fe2w",
         "--exclude-years", "2004"],
        ["montecarlo", "--config", str(tmp_path / "mc.json"), "--seed", "5"],
    ]
    ok = True
    for idx, argv in enumerate(runs):
        contents = []
        for attempt in ("a", "b"):
            out = tmp_path / f"run{idx}{attempt}"
            code = cli_main([*argv, "--out", str(out)])
            ok &= code == 0
            contents.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        ok &= contents[0] == contents[1]
    report("9 byte-identical CLI reruns", ok)
