"""Panel-econometrics toolkit for forest-loss / carbon-emission elasticities.

Core pieces: a balanced panel data model with explicit availability flags,
pixel-to-region aggregation, within and dynamic-panel GMM estimators with
cluster-robust inference, the standard specification-test battery, and a
seeded simulation harness for validating everything against known truths.
"""

__version__ = "0.1.0"

from .panel import (
    Grid,
    PanelDataset,
    PanelError,
    build_panel,
    demean_twoway,
    demean_twoway_values,
    first_difference,
    interact,
    lag,
    log1,
    log1_grid,
)
from .ingest import (
    DEFAULT_THETA,
    EmissionFactors,
    LoadError,
    Pixel,
    PixelGrid,
    aggregate_emissions,
    aggregate_loss,
    filter_canopy,
    load_panel_csv,
    load_pixel_grid_csv,
    pixel_panel,
    summary_stats,
    write_panel_csv,
)
from .estimators import (
    CONST,
    ElasticityReport,
    EstimationError,
    FitResult,
    RegressionSpec,
    cluster_robust_vcov,
    fit_dynamic_lsdv,
    fit_pooled_ols,
    fit_twoway_fe,
    lagged_name,
    long_run_elasticity,
)
from .gmm import (
    GmmOptions,
    InstrumentSet,
    build_ab_instruments,
    fit_diff_gmm,
    fit_sys_gmm,
)
from .diagnostics import (
    DiagnosticError,
    TestResult,
    ar_test,
    diagnostic_bundle,
    durbin_watson,
    hansen_j,
    jarque_bera,
    within_r2,
)
from .dgp import (
    DGPConfig,
    DGPError,
    GridDGPConfig,
    MonteCarloRun,
    MonteCarloStudy,
    monte_carlo,
    replication_seed,
    simulate_disturbance_grid,
    simulate_dynamic_panel,
)
