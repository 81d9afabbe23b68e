"""``BENCHMARK.json`` is ``manifest.py`` rendered, and well-formed."""

from __future__ import annotations

import json
import re
from pathlib import Path

import manifest

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_the_rendered_manifest():
    assert (ROOT / "BENCHMARK.json").read_text() == manifest.render()


def test_manifest_names_units_and_bounds():
    document = json.loads(manifest.render())
    assert set(document) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    names = [w["name"] for w in document["workloads"]]
    metrics = document["end_to_end"] + document["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200
