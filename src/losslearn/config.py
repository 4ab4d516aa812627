"""Field checks of configs, losses and loss files: a dataclass's annotations are its schema."""

import sys
from dataclasses import MISSING, fields
from typing import get_args, get_origin


class ConfigError(ValueError):
    """Bad configuration or unresolvable selector; maps to exit code 2."""


def config_from_dict(cls, doc, what):
    """Build the config dataclass ``cls`` from a parsed JSON object.

    The dataclass is the schema: a field without a default is required, an
    absent optional field takes its default, and any other name is rejected.
    The class itself checks each value against its field's annotation
    (``check_fields``), however it is built.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING:
            raise ConfigError(f"missing field '{f.name}'")
    names = {f.name for f in fields(cls)}
    for name in doc:
        if name not in names:
            raise ConfigError(f"unknown field '{name}'")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


# annotation -> (what one value must be, what array elements must be, a test of one
# value); a bool is no number, numpy's float64 is a float, NaN or 10**400 no float
_FIELD_TYPES = {
    int: ("an integer", "integers", lambda v: type(v) is int),
    float: ("a finite number", "finite numbers",
            lambda v: (type(v) is int or isinstance(v, float)) and abs(v) <= sys.float_info.max),
    str: ("a string", "strings", lambda v: isinstance(v, str)),
    bool: ("true or false", "booleans", lambda v: type(v) is bool),
    tuple: ("an array", "arrays", lambda v: isinstance(v, (list, tuple))),
    dict: ("an object", "objects", lambda v: isinstance(v, dict)),
}


def check_fields(config):
    """ValueError unless each field of dataclass config fits its annotation (None
    too where the default is None): tuple[T, ...] and tuple[T, T] take a list of T
    (of two), dict[K, T] values of T, a class its instances; arrays become tuples."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.default is None and value is None:
            continue
        base, args = get_origin(f.type) or f.type, get_args(f.type)
        kind, _, fits = _FIELD_TYPES.get(base) or (f"a {base.__name__}", "", base.__instancecheck__)
        if not fits(value):
            null = " or null" if f.default is None else ""
            raise ValueError(f"{f.name} must be {kind}{null}, got {value!r}")
        if base is tuple and args and ... not in args and len(value) != len(args):
            raise ValueError(f"{f.name} must hold {len(args)} values, got {value!r}")
        if args:  # tuple[T, ...], tuple[T, T] or dict[K, T]
            _, kinds, fits = _FIELD_TYPES[args[-1] if base is dict else args[0]]
            if not all(fits(v) for v in (value.values() if base is dict else value)):
                raise ValueError(f"{f.name} must be {kinds}, got {value!r}")
        if base is tuple:
            object.__setattr__(config, f.name, tuple(value))
