"""The shared JSON config loader: key checks, type checks and the echo."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import pytest

from chordbalance._config import JsonConfig, load_config


@dataclass(frozen=True)
class Toy(JsonConfig):
    count: int
    scale: float = 1.0
    label: str = "toy"
    pair: tuple[int, int] = (0, 1)
    names: tuple[str, ...] = ()
    weights: dict[str, float] | None = None
    shares: Mapping[str, float] = field(default_factory=dict)
    limit: int | None = None


class TestLoadConfig:
    @pytest.mark.parametrize(
        "raw",
        [
            {"count": 3},
            {"count": 3, "scale": 2},
            {"count": 3, "scale": 0.5, "label": "x", "pair": [4, 5], "names": [],
             "weights": {"a": 1, "b": 0.5}, "shares": {}, "limit": None},
            {"count": 3, "names": ["a", "b", "c"], "weights": None, "limit": 0},
        ],
    )
    def test_accepts_well_typed_values(self, raw):
        echo = load_config(Toy, raw, "toy config").to_dict()
        assert {key: echo[key] for key in raw} == raw

    @pytest.mark.parametrize(
        "key,value,expected",
        [
            ("count", True, "int"),
            ("count", 3.0, "int"),
            ("count", "3", "int"),
            ("scale", False, "float"),
            ("scale", "1", "float"),
            ("label", 1, "str"),
            ("pair", 4, "tuple[int, int]"),
            ("pair", [4], "tuple[int, int]"),
            ("pair", [4, 5, 6], "tuple[int, int]"),
            ("pair", [4, 5.5], "tuple[int, int]"),
            ("names", "ab", "tuple[str, ...]"),
            ("names", ["a", None], "tuple[str, ...]"),
            ("weights", [1.0], "dict[str, float] | None"),
            ("weights", {"a": "1"}, "dict[str, float] | None"),
            ("shares", {"a": None}, "Mapping[str, float]"),
            ("limit", 1.5, "int | None"),
        ],
    )
    def test_rejects_wrong_types_naming_the_field(self, key, value, expected):
        with pytest.raises(ValueError) as info:
            load_config(Toy, {"count": 1, key: value}, "toy config")
        assert str(info.value) == f"toy config field {key!r} must be {expected}, got {value!r}"

    def test_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ValueError, match=r"^unknown toy config fields: \['a', 'b'\]$"):
            load_config(Toy, {"count": 1, "b": 0, "a": 0}, "toy config")
        with pytest.raises(ValueError, match=r"^toy config lacks required fields: \['count'\]$"):
            load_config(Toy, {"scale": 1.0}, "toy config")
        with pytest.raises(ValueError, match="toy config must be a mapping of Toy fields"):
            load_config(Toy, [1], "toy config")

    def test_given_defaults_replace_the_dataclass_defaults(self):
        defaults = {**Toy(2).to_dict(), "scale": 0.5}
        loaded = load_config(Toy, {"count": 5}, "toy config", defaults)
        assert loaded.to_dict() == {**defaults, "count": 5}
        without_label = {key: value for key, value in defaults.items() if key != "label"}
        with pytest.raises(ValueError, match=r"lacks required fields: \['label'\]$"):
            load_config(Toy, {}, "toy config", without_label)
        with pytest.raises(ValueError, match=r"lacks required fields: \['scale', 'label'"):
            load_config(Toy, {"count": 1}, "toy config", defaults={})

    def test_extra_keys_are_required_checked_and_kept_out(self):
        extra = {"durations": dict[str, float]}
        raw = {"count": 1, "durations": {"t": 2}}
        assert load_config(Toy, raw, "toy config", extra=extra) == Toy(1)
        with pytest.raises(ValueError, match=r"lacks required fields: \['durations'\]"):
            load_config(Toy, {"count": 1}, "toy config", extra=extra)
        with pytest.raises(ValueError, match="field 'durations' must be dict"):
            load_config(Toy, {"count": 1, "durations": []}, "toy config", extra=extra)

    def test_echo_round_trips_through_json(self):
        toy = Toy(3, 2.5, pair=(4, 5), names=("a",), weights={"a": 1.0})
        echo = toy.to_dict()
        assert echo["pair"] == [4, 5] and echo["names"] == ["a"]
        assert load_config(Toy, json.loads(json.dumps(echo)), "toy config").to_dict() == echo
