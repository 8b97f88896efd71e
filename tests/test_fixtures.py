"""Bundled fixtures: counts, cleanliness, canonical stability."""

import pytest

from cftweave import (
    ModelError,
    fixture_names,
    fixture_text,
    load_fixture,
    serialize,
    validate,
)


def test_names():
    assert fixture_names() == ("example_fig2", "vehicle")


def test_unknown_fixture():
    with pytest.raises(ModelError, match="unknown fixture"):
        load_fixture("nope")


def test_fig2_counts(fig2):
    assert len(fig2.components) == 4
    assert len(fig2.connections) == 2
    assert len(fig2.dependencies) == 3
    assert fig2.layers == ("hw", "sw")


def test_vehicle_counts(vehicle):
    assert len(vehicle.components) == 8
    assert vehicle.layers == ("functional", "physical")
    assert [(d.dependent, d.provider) for d in vehicle.dependencies] == [
        ("EBC", "M"), ("R", "B"), ("U1", "B"), ("U2", "B")]
    assert {c.name for c in vehicle.components if c.layer == "physical"} == {"B", "M"}
    assert {c.name for c in vehicle.components if c.layer == "functional"} == \
        {"R", "U1", "U2", "EBC", "E", "S"}


def test_fixtures_validate_without_errors(fig2, vehicle):
    assert validate(fig2).ok
    assert validate(vehicle).ok


def test_fixture_files_are_canonical():
    # The shipped file doubles as the serialization golden: any drift in the
    # canonical form or in the fixture itself fails here.
    for name in fixture_names():
        assert serialize(load_fixture(name)) == fixture_text(name)
