"""Panel-econometrics toolkit for forest-loss / carbon-emission elasticities.

Core pieces: a balanced panel data model with explicit availability flags,
pixel-to-region aggregation, within and dynamic-panel GMM estimators with
cluster-robust inference, the standard specification-test battery, and a
seeded simulation harness for validating everything against known truths.

Each public name lives in, and is imported from, the module that defines it:
``panel``, ``ingest``, ``estimators``, ``gmm``, ``diagnostics`` and ``dgp``.
The package imports those six modules so that ``import forestpanel as fp``
reaches them as ``fp.gmm.fit_sys_gmm`` and so on. The import also puts each
of them in ``sys.modules`` as soon as the package loads, where the benchmark's
span tracer looks every layer up before the first CLI call; it stays until
that tracer imports the modules it wraps itself.
"""

from . import dgp, diagnostics, estimators, gmm, ingest, panel  # noqa: F401

__version__ = "0.1.0"
