"""The benchmark's tracer (bench/tracer.py) patches package functions by
(module, attribute) name, so a function moved or renamed without it makes
`bench/run.py --trace 1` crash.  This reads the tracer's BOUNDARIES by path
and checks that every name still resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, attribute) for _, _, pairs in tracer.BOUNDARIES
               for module, attribute in pairs]
    assert len(targets) > 20
    missing = [(module, attribute) for module, attribute in targets
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert missing == []
