"""The span tracer in bench/spans.py must still bind every name it patches.

The tracer rebinds module globals and class methods by name, so renaming or
deleting one of them breaks traced benchmark runs; this test makes that
visible in the ordinary test run.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_constraints_suite_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from bench.spans import Tracer

    from qscheme import verify

    tracer = Tracer()
    with tracer.installed():
        reports = verify.run_suite("constraints")
    assert [r.suite for r in reports] == ["constraints"]
    assert reports[0].passed
    assert tracer.calls("verify.run_suite") == 1
    assert tracer.calls("verify.suite_constraints") == 1
    assert tracer.calls("core.ParameterVector.h_separation_ok") == 18
