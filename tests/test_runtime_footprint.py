"""The collection runtime never imports scipy.

The deviation models need only the standard normal cdf and its inverse,
which :mod:`repro.framework.normal` ports from Cephes, and scipy is most
of what a fresh ``import repro`` would otherwise cost in memory and
start-up time. The guard runs a whole round in a fresh interpreter with
``scipy`` blocked in ``sys.modules``, so any scipy import raises,
because this test process has long since imported scipy for other
tests. Only the KS diagnostic still needs ``scipy.stats``; it loads it
on its first call, in an interpreter of its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])

ROUND = r"""
import json
import sys

sys.modules["scipy"] = None  # any scipy import now raises ImportError

import numpy as np

import repro
import repro.federation
import repro.session
import repro.transport
from repro import (
    CategoricalAttribute, LDPClient, LDPServer, NumericAttribute,
    Recalibrator, Schema,
)

schema = Schema([
    NumericAttribute("x"),
    NumericAttribute("y"),
    CategoricalAttribute("c", n_categories=4),
])
protocols = {"x": "piecewise", "y": "laplace", "c": "oue"}
client = LDPClient(schema, epsilon=1.0, protocols=protocols)
server = LDPServer(schema, epsilon=1.0, protocols=protocols)
rng = np.random.default_rng(7)
records = np.column_stack([
    rng.uniform(-1.0, 1.0, 600),
    rng.uniform(-1.0, 1.0, 600),
    rng.integers(0, 4, 600).astype(np.float64),
])
for batch in np.array_split(records, 3):
    server.ingest(client.report_batch(batch, rng))
estimate = server.estimate(postprocess=Recalibrator("l1"))
model = server.deviation_model("x")
out = {
    "enhanced": bool(np.all(np.isfinite(estimate["x"].enhanced))),
    "box": model.box_probability(0.1),
    "envelope": float(model.envelopes(0.99)[0]),
    "scipy_modules": sorted(
        name for name, module in sys.modules.items()
        if name.split(".")[0] == "scipy" and module is not None
    ),
}
print(json.dumps(out))
"""

KS_FIT = r"""
import json
import sys

import numpy as np

from repro.analysis.density import gaussian_fit
from repro.framework import DeviationModel

out = {"stats_before_fit": "scipy.stats" in sys.modules}
model = DeviationModel(delta=0.0, sigma=0.1, reports=100, epsilon=1.0)
fit = gaussian_fit(model.sample(400, np.random.default_rng(7)), model)
out["ks_pvalue"] = fit.ks_pvalue
out["stats_after_fit"] = "scipy.stats" in sys.modules
print(json.dumps(out))
"""


def _run_fresh(source):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", source],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_round_runs_without_scipy_stats():
    out = _run_fresh(ROUND)
    assert out["scipy_modules"] == []
    assert out["enhanced"]
    assert 0.0 < out["box"] <= 1.0
    assert out["envelope"] > 0.0


def test_ks_diagnostic_loads_scipy_stats_on_first_call():
    out = _run_fresh(KS_FIT)
    assert not out["stats_before_fit"]
    assert out["stats_after_fit"]
    assert 0.0 <= out["ks_pvalue"] <= 1.0
