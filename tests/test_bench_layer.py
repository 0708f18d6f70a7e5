"""The layer timer on a shrunk grid: each layer's cell keys, its speed-ups and the merge of rows by label."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import portmanteau
from portmanteau import Arma, Garch, ModelSpec, fit_arma_css, fit_garch_qmle, simulate
from portmanteau.models import _simulate_block

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_layer.py"
SRC = str(ROOT / "src")
# Layer: its cell keys, in order, and its number of cells on the shrunk grid.
CELLS = {
    "simulate": (["model", "n", "block", "ms_per_path", "sha256"], 7 * 2),
    "lag_kernel": (["n", "max_lag", "block", "us_per_series"], 2 * 2),
    "logdet": (["family", "n", "m", "block", "us_per_series"], 2 * 2 * 2),
    "garch_qmle": (["order", "n", "ms_per_fit", "iterations", "loglik_mean", "block_ms_per_row"], 1),
    "arma_css": (["order", "n", "ms_per_fit", "iterations", "loglik_mean", "block_ms_per_row"], 1),
    "ar_ls": (["fit", "n", "block", "us_per_series"], 2 * 2),
    "statistics": (["design", "n", "block", "us_per_series"], 2 * 2),
    "startup": (["command", "workload", "s", "peak_rss_mb"], 3 * 1),
    "mc_call": (["workload", "ms_per_call"], 1),
}


@pytest.fixture
def bench_layer(monkeypatch):
    """The script on one n, blocks of 1 and 2, one GARCH and one ARMA order, one workload and one call per timing."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the test; loading the script sets them
    spec = importlib.util.spec_from_file_location("bench_layer", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SIZES", (200,))
    monkeypatch.setattr(module, "BLOCKS", (1, 2))
    monkeypatch.setattr(module, "GARCH_MODELS", {(1, 0): module.GARCH_MODELS[1, 0]})
    monkeypatch.setattr(module, "ARMA_MODELS", {(1, 1): module.ARMA_MODELS[1, 1]})
    monkeypatch.setattr(module, "WORKLOADS", {"battery": module.WORKLOADS["battery"]})
    for name, layer in module.LAYERS.items():
        monkeypatch.setitem(module.LAYERS, name, layer._replace(repeat=1))
    return module


@pytest.mark.parametrize("layer", list(CELLS))
def test_each_layer_writes_its_cells_and_speedups(bench_layer, layer, tmp_path):
    out = tmp_path / f"BENCH_{layer}.json"
    assert bench_layer.main([layer, "--tree", f"old={SRC}", "--tree", f"new={SRC}", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["layer"] == bench_layer.LAYERS[layer].name
    assert [row["label"] for row in payload["rows"]] == ["old", "new"]
    keys, count = CELLS[layer]
    cells = payload["rows"][-1]["cells"]
    assert all(list(cell) == keys for row in payload["rows"] for cell in row["cells"])
    assert len(cells) == len(payload["speedups"]) == count
    if layer in ("garch_qmle", "arma_css"):
        assert list(cells[0]["block_ms_per_row"]) == ["1", "2"]
        assert list(payload["speedups"][0]["block_ratio"]) == ["1", "2"]
    if layer == "arma_css":
        spec = ModelSpec(model=Arma(**bench_layer.ARMA_MODELS[1, 1]), burn_in=200)
        fits = [fit_arma_css(simulate(spec, 200, seed), 1, 1) for seed in range(3)]
        assert cells[0]["iterations"] == float(np.mean([fit.iterations for fit in fits]))
        assert cells[0]["loglik_mean"] == float(np.mean([fit.loglik for fit in fits]))
    if layer == "simulate":
        # Both rows load the same tree, so every cell shows the same bits; the digest is of the block's paths.
        assert [cell["sha256"] for cell in payload["rows"][0]["cells"]] == [cell["sha256"] for cell in cells]
        spec = ModelSpec(model=bench_layer.MODELS["ar_arch"](portmanteau))
        paths, _ = _simulate_block(spec, 200, [1000, 1001])
        ar_arch = next(c for c in cells if (c["model"], c["block"]) == ("ar_arch", 2))
        assert ar_arch["sha256"] == hashlib.sha256(paths.tobytes()).hexdigest()
    if layer == "garch_qmle":
        # The lone fits are of seeds 0..2, though the blocks need only seeds 0 and 1.
        spec = ModelSpec(model=Garch(**bench_layer.GARCH_MODELS[1, 0]), burn_in=200)
        fits = [fit_garch_qmle(simulate(spec, 200, seed), 1, 0) for seed in range(3)]
        assert cells[0]["iterations"] == float(np.mean([fit.iterations for fit in fits]))
        assert cells[0]["loglik_mean"] == float(np.mean([fit.loglik for fit in fits]))

    assert bench_layer.main([layer, "--tree", f"new={SRC}", "--out", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [row["label"] for row in rows] == ["old", "new"]
    assert rows[0] == payload["rows"][0]
