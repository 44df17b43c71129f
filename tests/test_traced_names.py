"""The benchmark's span tracer finds each function it times by name: every
flatdpp entry of bench/spans.py's TRACED list must resolve."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in spans.TRACED if module != "mpmath"]


def resolves(module: str, attr: str) -> bool:
    obj = importlib.import_module(f"flatdpp.{module}")
    for part in attr.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return callable(obj)


def test_every_traced_name_resolves():
    names = traced_names()
    assert len(names) >= 20
    missing = [f"flatdpp.{module}.{attr}" for module, attr in names if not resolves(module, attr)]
    assert not missing
