"""The collection runtime never loads ``scipy.stats``.

The deviation models need only the standard normal cdf and its inverse
(``scipy.special``), and ``scipy.stats`` is most of what a fresh
``import repro`` would otherwise cost in memory and start-up time. The
guard runs a whole round in a fresh interpreter, because this test
process has long since imported ``scipy.stats`` for other tests.
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
    "stats_modules": sorted(m for m in sys.modules if m.startswith("scipy.stats")),
}

from repro.analysis.density import gaussian_fit

dimension = model.dimensions[0]
fit = gaussian_fit(dimension.sample(400, rng), dimension)
out["ks_pvalue"] = fit.ks_pvalue
out["stats_after_fit"] = "scipy.stats" in sys.modules
print(json.dumps(out))
"""


def test_round_runs_without_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", ROUND],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["stats_modules"] == []
    assert out["enhanced"]
    assert 0.0 < out["box"] <= 1.0
    assert out["envelope"] > 0.0
    # the KS diagnostic still works: it loads scipy.stats on first call
    assert out["stats_after_fit"]
    assert 0.0 <= out["ks_pvalue"] <= 1.0
