"""The benchmark's tracer must find every layer it wraps.

``perfbench/tracing.py`` replaces the functions named in its ``LAYERS`` with
timing wrappers, looked up by name; a renamed or removed layer would break the
benchmark only when it runs.  This test installs the tracer, sends one request
of each kind the benchmark sends, and checks what each layer saw.
"""

import sys
from pathlib import Path

from revca import cli, injectivity

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import LAYERS, Tracer  # noqa: E402


def test_tracer_sees_every_request_kind(capsys):
    originals = [getattr(module, name) for module, name, _ in LAYERS]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["induce", "0X011", "--verify"]) == 0
        assert cli.main(["verify", "-d", "3", "-w", "90"]) == 1
        found = injectivity.scan_unit(4, (0, 4096))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert [getattr(module, name) for module, name, _ in LAYERS] == originals
    assert found == [255, 3855, 3915]
    counts = tracer.counts
    assert counts["cli.main.calls"] == 2
    # induce and verify decide one table each, and the sweep unit the 3 it finds
    assert counts["injectivity.debruijn_injective.calls"] == 5
    assert counts["injectivity.debruijn_injective.accepted"] == 4
    assert counts["injectivity.debruijn_injective.rejected"] == 1
    assert counts["injectivity.periodic_bijective.calls"] == 12
    assert counts["engine.all_configs.calls"] == 12
    assert counts["engine.batch_step.calls"] >= 12
    assert counts["rules.induce.calls"] == 1
    assert counts["patterns.build_mixture.calls"] == 1
    assert counts["injectivity.scan_unit.d4.calls"] == 1
    assert counts["injectivity.scan_unit.d4.tables"] == 4096
    assert counts["injectivity.scan_unit.d4.found"] == 3
    assert set(tracer.self_times()) >= {
        "cli.main", "injectivity.debruijn_injective", "injectivity.periodic_bijective",
        "engine.batch_step", "injectivity.scan_unit.d4"}
