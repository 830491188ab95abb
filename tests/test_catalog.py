"""Catalog loading and expectation re-derivation."""

import os
import shutil
from pathlib import Path

import pytest

from eigenforge import catalog
from eigenforge.parser import load_family
from eigenforge.scalars import scalar


def test_every_entry_has_expectations():
    names = catalog.list_entries()
    assert len(names) >= 10
    for name in names:
        source = catalog.load_entry(name)
        assert source.expects, f"{name} carries no expectations"
        assert "eigenfamily" in source.expects


def test_all_entries_pass():
    results = catalog.run_all()
    failures = [str(o) for outs in results.values() for o in outs if not o.ok]
    assert failures == []
    total = sum(len(outs) for outs in results.values())
    assert total >= 30


def test_missing_entry():
    with pytest.raises(FileNotFoundError):
        catalog.entry_path("no-such-family")


def test_outcome_str():
    o = catalog.ExpectationOutcome("degree", scalar(3), 3, True)
    assert str(o).startswith("pass")
    o = catalog.ExpectationOutcome("degree", scalar(3), 4, False)
    assert str(o).startswith("FAIL")


def test_env_override(tmp_path, monkeypatch):
    shutil.copy(catalog.entry_path("z1z2"), tmp_path / "only.efam")
    monkeypatch.setenv("EIGENFORGE_CATALOG", str(tmp_path))
    assert catalog.catalog_dir() == str(tmp_path)
    assert catalog.list_entries() == ["only"]
    outcomes = catalog.run_entry(catalog.load_entry("only"))
    assert all(o.ok for o in outcomes)


def test_corrupted_entry_fails(tmp_path, monkeypatch):
    text = Path(catalog.entry_path("pair-c4")).read_text()
    broken = text.replace("z*conj(w) - u*conj(v)", "z*conj(w) + u*conj(v)")
    assert broken != text
    (tmp_path / "broken.efam").write_text(broken)
    monkeypatch.setenv("EIGENFORGE_CATALOG", str(tmp_path))
    outcomes = catalog.run_entry(catalog.load_entry("broken"))
    bad = {o.key for o in outcomes if not o.ok}
    assert "eigenfamily" in bad


def test_unknown_expectation_key_fails(tmp_path, monkeypatch):
    (tmp_path / "odd.efam").write_text(
        "family odd\n"
        "frame complex z\n"
        "F = z^2\n"
        "expect eigenfamily = true\n"
        "expect shiny = true\n")
    monkeypatch.setenv("EIGENFORGE_CATALOG", str(tmp_path))
    outcomes = catalog.run_entry(catalog.load_entry("odd"))
    by_key = {o.key: o for o in outcomes}
    assert by_key["eigenfamily"].ok
    assert not by_key["shiny"].ok
    assert by_key["shiny"].actual == "unknown expectation"


def test_check_error_is_reported_not_raised(tmp_path, monkeypatch):
    # sphere data needs homogeneous members; the mixed family must fail
    # its sphere expectation without taking down the whole run
    (tmp_path / "mixed.efam").write_text(
        "family mixed\n"
        "frame complex z u\n"
        "F1 = z^2\n"
        "F2 = z*u^2\n"
        "expect sphere_lambda = -8\n")
    monkeypatch.setenv("EIGENFORGE_CATALOG", str(tmp_path))
    outcomes = catalog.run_entry(catalog.load_entry("mixed"))
    (o,) = outcomes
    assert not o.ok
    assert str(o.actual).startswith("error:")


def test_bindings_reach_parameters(tmp_path):
    source = load_family(catalog.entry_path("abb-r5"), bindings={"g": scalar(2)})
    assert source.params["g"] == scalar(2)
    outcomes = catalog.run_entry(source)
    assert all(o.ok for o in outcomes)


def test_entries_ship_with_package():
    # the data files must live next to the loader so installs carry them
    d = catalog.catalog_dir()
    assert os.path.dirname(catalog.__file__) == d or os.environ.get("EIGENFORGE_CATALOG")
    assert any(fn.endswith(".efam") for fn in os.listdir(os.path.dirname(catalog.__file__)))
