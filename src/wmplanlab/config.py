"""The rules of config fields, and the one check that applies them.

A config object is a dataclass whose fields are the keys of its config
section. A field's metadata may hold a rule for its value, the config `key`
where that is not the field's name (None where no key sets the field), or
`FLAT` for a part whose keys sit in its owner's section. Each config object
runs `check` in `__post_init__`, so a direct construction keeps the ranges
a loaded config keeps; rules between fields follow it there.
"""

from __future__ import annotations

from dataclasses import fields


class FieldError(ValueError):
    """A field breaks its rule; the message starts with the field's key."""


def rule(expect: str, ok) -> dict:
    """`ok(value)` holds for each value that `expect` describes."""
    return {"expect": expect, "ok": ok}


def at_least(low: int) -> dict:
    return rule(f"an integer >= {low}", lambda v: v >= low)


def one_of(choices) -> dict:
    return rule(f"one of {sorted(choices)}", lambda v: v in choices)


COUNT = at_least(1)  # the size of a loop that must run
NONNEG = at_least(0)  # the size of a loop that may run no times
POSITIVE = rule("a number > 0", lambda v: v > 0)  # a step size or a temperature
NONNEG_NUMBER = rule("a number >= 0", lambda v: v >= 0)  # a scaling factor or a jitter
WIDTHS = rule("a list of integers >= 1", lambda v: all(w >= 1 for w in v))
FLAT = {"flat": True}


def config_key(f) -> str | None:
    return f.metadata.get("key", f.name)


def check(obj) -> None:
    """Raise a FieldError for the first field of `obj` that is not None
    and breaks its rule."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is not None and "ok" in f.metadata and not f.metadata["ok"](value):
            raise FieldError(f"{config_key(f)}: expected {f.metadata['expect']}, "
                             f"got {value!r}")


class Checked:
    def __post_init__(self):
        check(self)
