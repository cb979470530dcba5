"""The benchmark's span tracer must still find every function it wraps.

``bench/spans.py`` patches functions by their lookup names in the
package's modules; a renamed or removed name makes
``bench/run.py --trace 1`` fail, so a refactor of ``src/`` checks it here.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer

    with Tracer():
        pass
