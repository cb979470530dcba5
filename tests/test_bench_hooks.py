"""The benchmark's span tracer must still find every function it wraps.

``bench/spans.py`` patches functions by their lookup names in the
package's modules; a renamed or removed name makes
``bench/run.py --trace 1`` fail, so a refactor of ``src/`` checks it here.
A refined ``verify`` must also reach the wrappers that split the
refinement into layers, so the per-layer metrics stay attributed.
"""

from pathlib import Path

from bikoeff import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer

    with Tracer():
        pass


def test_refinement_reaches_the_layer_wrappers(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer

    refine = ["--samples", "2000", "--refine-top", "1", "--refine-steps", "5",
              "--out", str(tmp_path / "out.txt")]
    with Tracer() as tracer:
        assert cli.main(["verify", "st:lambda=0:order:rho=0", "--target", "a2", *refine]) == 0
        assert cli.main(["verify", "ss:beta=3/4", "--target", "a5", *refine]) == 0
    for key in ("bikoeff.oracle.minimize", "bikoeff.oracle.solve_fast/pass",
                "bikoeff.oracle.implied_q_fast/pass", "bikoeff.oracle.a5_chain/pass",
                "numpy.linalg.eigvalsh"):
        assert tracer.fired[key] > 0, key
