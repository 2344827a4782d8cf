"""The benchmark's tracer, ``perfbench/spans.py``, still hooks qbg.

``Recorder.install()`` rebinds qbg's public functions by name and wraps the
validating ``__post_init__`` of ``EnergySpectrum`` and ``Distribution``; a
renamed function or method breaks every ``--trace 1`` run.
"""

from pathlib import Path

import qbg.cli  # noqa: F401  (install() reads the numeric modules from sys.modules)
from qbg import equivalence, spectrum
from qbg.params import QParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_records_spans_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    recorder = spans.Recorder()
    try:
        recorder.install()
        rebound = list(recorder._undo)
        s = spectrum.make_spectrum([0.0, 1.0, 2.0], [1, 2, 1])
        equivalence.equivalence_report(s, QParams(0.98, 1.0), 3)
    finally:
        recorder.uninstall()
    names = {span[0] for span in recorder.spans}
    assert {"spectrum.make_spectrum", "spectrum.EnergySpectrum", "spectrum.Distribution",
            "equivalence.equivalence_report"} <= names
    assert rebound
    assert [(target, attr) for target, attr, original in rebound
            if getattr(target, attr) is not original] == []
