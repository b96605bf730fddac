"""The pin table (tests/pins.py) on both event kernels, and ``repin``.

Every pinned output of the simulator is one entry of
``tests/golden/pins.json``: Config #1/#2/#3 results, cells on the paths
the paper's grid never reaches (shared pool, faults, every routing
policy), the two cells of ``tests/golden/cache_v2/``, three event
histograms, two protocol-trace streams and a telemetry bundle.  A pin
that holds on both kernels also says the engine agrees with the heap
oracle byte for byte.  On a move, the message is the row
``scripts/repin.py`` prints: what moved, old → new.
"""

import importlib.util
import json

import pytest

from tests import pins

TABLE = pins.load(pins.TABLE)
TABLE_BYTES = pins.TABLE.read_bytes()
#: the cheapest pin, for the tests of ``repin`` itself
CHEAP = "case1/CCFIT ts=0.02 seed=1"


@pytest.mark.parametrize("name", sorted(TABLE))
def test_pin_holds(name, sim_cls):
    new = pins.run(TABLE[name], sim_cls)
    assert new == TABLE[name], pins.row(name, TABLE[name], new)


def test_the_table_is_as_written():
    kinds = [entry["kind"] for entry in TABLE.values()]
    assert {k: kinds.count(k) for k in pins.RUNNERS} == {
        "result": 19, "trace": 2, "telemetry": 1, "dispatch": 3}
    assert TABLE_BYTES.decode() == pins.dump(TABLE)


def test_explicit_det_routing_is_the_pinned_default(sim_cls):
    """``routing="det"`` given down the policy layer gives the bytes of
    the default path, and leaves no mark in them."""
    entry = TABLE["case1/1Q"]
    result = pins.run_cell(entry["cell"], sim_cls, routing="det").to_dict()
    assert "routing" not in result
    assert pins.digest(result) == entry["sha256"]


@pytest.fixture
def repin(tmp_path, monkeypatch):
    """``scripts/repin.py``'s ``main`` on a copy of the table."""
    spec = importlib.util.spec_from_file_location("repin", pins.TABLE.parents[2] / "scripts" / "repin.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    copy = tmp_path / "pins.json"
    copy.write_bytes(pins.TABLE.read_bytes())
    monkeypatch.setattr(pins, "TABLE", copy)
    return lambda *argv: module.main(list(argv)), copy


def test_repin_names_what_moved_and_write_restores_it(repin, capsys):
    main, copy = repin
    altered = json.loads(copy.read_text())
    altered[CHEAP]["sha256"] = "0" * 64
    was = altered[CHEAP]["fingerprint"]["becns_sent"]
    altered[CHEAP]["fingerprint"]["becns_sent"] = 1234
    copy.write_text(pins.dump(altered))
    assert main("--check", "--only", CHEAP) == 1
    assert capsys.readouterr().out == f"{CHEAP}  becns_sent 1,234 → {was:,}\n"
    assert main("--write", "--only", "case1/CCFIT ts=0.02*") == 0
    assert copy.read_bytes() == TABLE_BYTES
    assert main("--check", "--only", CHEAP) == 0


@pytest.mark.parametrize("spoil,message", [
    (lambda entry: entry.update(kind="trail"), "pin 'case1/1Q' has unknown kind 'trail'"),
    (lambda entry: entry.pop("fingerprint"), "pin 'case1/1Q' has fields ['cell', 'kind', 'sha256']"),
])
def test_a_malformed_entry_fails_loudly(repin, capsys, spoil, message):
    main, copy = repin
    altered = json.loads(copy.read_text())
    spoil(altered["case1/1Q"])
    copy.write_text(json.dumps(altered))
    with pytest.raises(SystemExit) as stop:
        main("--check", "--only", CHEAP)
    assert stop.value.code == 2 and message in capsys.readouterr().err
