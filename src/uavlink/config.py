"""The configuration boundary: check, read and write the config dataclasses.

A section's annotations are its schema: each ``int``, ``float``, ``str``,
``list``, ``tuple`` or ``X | None`` field is checked against its own, and a
dataclass field is a section of its own. Only the scenario keeps encodings
of its own, for the fields it stores under another name or form.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import typing

from .geometry import AngularSupport, Box, Position3D, Scenario


def require_integer(value, name: str) -> None:
    """Refuse ``value`` naming its field unless it is an int, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_number(value, name: str) -> None:
    """Refuse ``value`` naming its field unless it is a finite real number,
    not a bool: no config field takes inf or NaN."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def require_string(value, name: str) -> None:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")


def require_list(value, name: str, length: int | None = None,
                 item=require_number) -> None:
    """Refuse ``value`` naming its field unless it is a list or tuple, of
    ``length`` entries if given, whose entries pass ``item`` (unchecked if
    None); a bad entry is refused naming the list."""
    if (not isinstance(value, (list, tuple))
            or length is not None and len(value) != length):
        what = "a list" if length is None else f"a list of {length}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    for entry in value if item else ():
        item(entry, name)


@functools.cache
def _checker(hint):
    """The check of one annotation, a function of (value, name)."""
    args = typing.get_args(hint)
    if type(None) in args:                              # X | None
        check = _checker(args[0])
        return lambda value, name: value is None or check(value, name)
    origin = typing.get_origin(hint)
    if origin in (list, tuple):
        length = len(args) if origin is tuple else None
        item = _checker(args[0])
        return lambda value, name: require_list(value, name, length, item)
    return {int: require_integer, float: require_number,
            str: require_string}[hint]


@functools.cache
def _fields(cls) -> dict:
    """Name -> annotation of each config field of ``cls``, in order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)
            if not dataclasses.is_dataclass(hints[f.name])}


@functools.cache
def _checks(cls, section: str) -> tuple:
    """(attribute, config name, check) of each config field of ``cls``."""
    return tuple((attr, f"{section}.{attr}", _checker(hint))
                 for attr, hint in _fields(cls).items())


def check_fields(obj, section: str) -> None:
    """Refuse the first config field of dataclass ``obj`` whose value does
    not fit its annotation, naming it ``section.field``."""
    for attr, name, check in _checks(type(obj), section):
        check(getattr(obj, attr), name)


def to_dict(obj, names=None) -> dict:
    """JSON form of config dataclass ``obj``: its config fields (or those
    ``names``) in field order, tuples written as lists."""
    return {name: _plain(getattr(obj, name))
            for name in names or _fields(type(obj))}


def _plain(value):
    return list(value) if isinstance(value, (list, tuple)) else value


def from_dict(cls, section: dict, name: str, **given):
    """A ``cls`` read from its config section ``name``, the dict to_dict
    writes, with ``given`` values over the section's. Unknown fields are
    refused by name, and a list becomes a tuple where the annotation asks
    for one; ``cls`` checks every value it is given."""
    fields = _fields(cls)
    _check_keys(section, fields, name)
    values = {key: _tupled(value, fields[key]) for key, value in section.items()}
    return cls(**{**values, **given})


def _tupled(value, hint):
    """``value``, a list made a tuple where annotation ``hint`` asks for one."""
    takes_tuple = tuple in map(typing.get_origin, (hint, *typing.get_args(hint)))
    return tuple(value) if takes_tuple and isinstance(value, list) else value


def _check_keys(d, known, name: str, required=()) -> None:
    """Require ``d`` to be a dict of ``required`` and other ``known``
    keys, naming the config path ``name`` otherwise."""
    if not isinstance(d, dict):
        raise ValueError(f"config field {name} must be an object")
    for key in required:
        if key not in d:
            raise ValueError(f"missing config field {name}.{key}")
    unknown = set(d) - set(known)
    if unknown:
        raise ValueError(f"unknown config field {name}.{sorted(unknown)[0]}")


# --- the scenario section ---------------------------------------------------

# the Scenario fields stored under their own name and form
_SCENARIO_PLAIN = tuple(name for name in _fields(Scenario) if name not in
                        ("users", "user_xy_range", "group_supports"))
_SCENARIO_KEYS = (*_SCENARIO_PLAIN, "bs_position", "uav_position", "users",
                  "deployment_box", "user_xy_range", "first_link_supports_deg",
                  "group_supports_deg_full")
_SUPPORT_KEYS = ("mean_elev_deg", "mean_azim_deg", "spread_elev_deg",
                 "spread_azim_deg")


def scenario_from_dict(cfg: dict) -> Scenario:
    """Build a Scenario from the dict scenario_to_dict writes (angles in
    degrees); any field may be omitted, unknown fields are errors."""
    _check_keys(cfg, _SCENARIO_KEYS, "scenario")
    hints, kwargs = _fields(Scenario), {}
    for key in _SCENARIO_PLAIN:
        if key in cfg:
            _checker(hints[key])(cfg[key], f"scenario.{key}")
            kwargs[key] = (float(cfg[key]) if hints[key] is float
                           else _tupled(cfg[key], hints[key]))
    for key, attr, length, build in (
            ("bs_position", "bs", 3, Position3D),
            ("uav_position", "uav", 3, Position3D),
            ("deployment_box", "box", 4, Box),
            ("user_xy_range", "user_xy_range", 2, lambda *lo_hi: lo_hi)):
        if key in cfg:
            require_list(cfg[key], f"scenario.{key}", length)
            kwargs[attr] = _named(build, cfg[key], f"scenario.{key}")
    if cfg.get("users") is not None:
        require_list(cfg["users"], "scenario.users",
                     item=lambda u, name: require_list(u, name, 3))
        kwargs["users"] = [_named(Position3D, u, f"scenario.users[{i}]")
                           for i, u in enumerate(cfg["users"])]
    if "first_link_supports_deg" in cfg:
        name = "scenario.first_link_supports_deg"
        pair = cfg["first_link_supports_deg"]
        _check_keys(pair, ("tx", "rx"), name, ("tx", "rx"))
        for side in ("tx", "rx"):
            kwargs[f"first_link_{side}_support"] = _support_from_deg(
                pair[side], f"{name}.{side}")
    if "group_supports_deg_full" in cfg:
        require_list(cfg["group_supports_deg_full"],
                     "scenario.group_supports_deg_full", item=None)
        kwargs["group_supports"] = [
            _support_from_deg(g, f"scenario.group_supports_deg_full[{i}]")
            for i, g in enumerate(cfg["group_supports_deg_full"])]
    return Scenario(**kwargs)


def scenario_to_dict(s: Scenario) -> dict:
    """Dict round-trip counterpart of scenario_from_dict (angles in degrees)."""
    plain = to_dict(s, _SCENARIO_PLAIN)
    # the key order is part of the dataset sidecar's bytes
    return {
        "bs_position": _xyz(s.bs), "uav_position": _xyz(s.uav),
        "users": None if s.users is None else [_xyz(u) for u in s.users],
        "group_sizes": plain.pop("group_sizes"),
        "deployment_box": [s.box.x_min, s.box.y_min, s.box.x_max, s.box.y_max],
        "user_xy_range": list(s.user_xy_range),
        **plain,
        "first_link_supports_deg": {
            side: _support_to_deg(getattr(s, f"first_link_{side}_support"))
            for side in ("tx", "rx")},
        "group_supports_deg_full": [_support_to_deg(g) for g in s.group_supports],
    }


def _named(build, args, name: str):
    """``build(*args)``, its refusal of the values prefixed with their
    config field ``name``."""
    try:
        return build(*args)
    except ValueError as err:
        raise type(err)(f"{name}: {err}") from None


def _xyz(p: Position3D) -> list[float]:
    return [p.x, p.y, p.z]


def _support_to_deg(sup: AngularSupport) -> dict:
    # "mean_elev_deg" holds sup.mean_elev, and so on
    return {key: math.degrees(getattr(sup, key[:-len("_deg")]))
            for key in _SUPPORT_KEYS}


def _support_from_deg(d: dict, name: str) -> AngularSupport:
    _check_keys(d, _SUPPORT_KEYS, name, _SUPPORT_KEYS)
    for key in _SUPPORT_KEYS:
        require_number(d[key], f"{name}.{key}")
    return _named(AngularSupport,
                  [math.radians(float(d[k])) for k in _SUPPORT_KEYS], name)
