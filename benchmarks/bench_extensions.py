"""Extension benchmarks: the paper's future-work directions, measured.

Three studies beyond the paper's evaluation section:

* **Elastic net** — α-sweep between the paper's L1 (α = 1) and L2
  (α = 0) on the Gaussian dataset; the paper's two extremes bracket the
  family.
* **Set-valued data** — padding-and-sampling frequency estimation, the
  paper's named future-work data type.
* **Variance estimation** — the paper's "other statistics" direction,
  collected through the session: each value and its square are two
  attributes of one schema, and HDR4ME re-calibrates both moments.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import mse, true_mean
from repro.datasets import gaussian_dataset
from repro.experiments import SeriesRow, format_series
from repro.hdr4me import Recalibrator, l1_lambda, recalibrate_elastic_net
from repro.mechanisms import get_mechanism
from repro.protocol import MeanEstimationPipeline, PaddingAndSampling, item_frequencies
from repro.session import LDPClient, LDPServer, NumericAttribute, Schema
from bench_config import BENCH_SEED

USERS = 15_000


def _elastic_sweep(alphas, users, seed):
    rng = np.random.default_rng(seed)
    d, eps = 100, 0.4
    data = gaussian_dataset(users, d, rng=rng)
    truth = true_mean(data)
    pipeline = MeanEstimationPipeline(get_mechanism("laplace"), eps, dimensions=d)
    result = pipeline.run(data, rng)
    model = pipeline.deviation_model(users=users)
    lambdas = l1_lambda(model)
    rows = []
    for alpha in alphas:
        theta = recalibrate_elastic_net(result.theta_hat, lambdas, alpha)
        rows.append(SeriesRow(x=alpha, values={"mse": mse(theta, truth)}))
    baseline = mse(result.theta_hat, truth)
    return baseline, rows


def test_elastic_net_alpha_sweep(benchmark, record_artefact):
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    baseline, rows = benchmark.pedantic(
        _elastic_sweep, args=(alphas, USERS, BENCH_SEED), rounds=1, iterations=1
    )
    text = format_series(
        "Elastic-net alpha sweep (baseline MSE %.4g)" % baseline,
        "alpha",
        ("mse",),
        rows,
    )
    record_artefact("ext_elastic_net", text)
    # Every alpha beats the raw aggregation in the high-noise regime.
    for row in rows:
        assert row.values["mse"] < baseline


def _setvalued_study(users, seed):
    rng = np.random.default_rng(seed)
    n_items = 24
    sets = [
        list(rng.choice(n_items, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(users)
    ]
    truth = item_frequencies(sets, n_items)
    rows = []
    for eps in (1.0, 2.0, 4.0):
        ps = PaddingAndSampling(epsilon=eps, n_items=n_items, padding_length=3)
        estimate = ps.run(sets, rng)
        rows.append(
            SeriesRow(
                x=eps,
                values={"mse": float(np.mean((estimate.best() - truth) ** 2))},
            )
        )
    return rows


def test_setvalued(benchmark, record_artefact):
    rows = benchmark.pedantic(
        _setvalued_study, args=(USERS, BENCH_SEED), rounds=1, iterations=1
    )
    record_artefact(
        "ext_setvalued",
        format_series("Set-valued padding-and-sampling", "epsilon", ("mse",), rows),
    )
    series = [row.values["mse"] for row in rows]
    assert series[-1] < series[0]
    assert series[-1] < 1e-3


def _variance_study(users, seed):
    rng = np.random.default_rng(seed)
    d, eps = 100, 0.4
    data = rng.uniform(-1.0, 1.0, size=(users, d))
    truth = data.var(axis=0)
    # Every user reports all 2d attributes, so each gets ε/2d: the budget
    # the value and its square each spent when collected at ε/2 apiece.
    schema = Schema(
        [NumericAttribute("x%d" % j) for j in range(d)]
        + [NumericAttribute("sq%d" % j, domain=(0.0, 1.0)) for j in range(d)]
    )
    client = LDPClient(schema, eps, protocols="laplace")
    server = LDPServer(schema, eps, protocols="laplace")
    server.ingest(client.report_batch(np.hstack([data, data**2]), rng))

    def variance_mse(postprocess):
        moments = server.estimate(postprocess=postprocess).numeric_means()
        mean, second = moments[:d], moments[d:]
        variance = np.maximum(second - mean**2, 0.0)
        return float(np.mean((variance - truth) ** 2))

    return variance_mse(None), variance_mse(Recalibrator(norm="l2"))


def test_variance_estimation(benchmark, record_artefact):
    plain, enhanced = benchmark.pedantic(
        _variance_study, args=(USERS, BENCH_SEED), rounds=1, iterations=1
    )
    record_artefact(
        "ext_variance",
        "# Variance estimation from value and square attributes (d=100, eps=0.4)\n"
        "plain\t%.4g\nhdr4me_l2\t%.4g" % (plain, enhanced),
    )
    assert enhanced < plain
