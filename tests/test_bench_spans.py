"""Every callable the benchmark's tracer wraps must exist in the package.

perfbench/tracing.py wraps functions by name and records a missing one as
an absent span, which fails the benchmark's self-test; this test fails
tier-1 on the same rename or deletion.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()
