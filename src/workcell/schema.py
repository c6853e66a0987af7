"""The value shapes of documents from outside the engine.

Scenario files, task graphs and reasoner replies are checked here before
any builder, skill or loop reads them. A shape is a pair: a test of one
value, and what the test wants, in words. A key table maps each key a
reader takes from a mapping to the shape of its value, and ``key_errors``
walks one mapping against one table. Key tables live beside the code that
reads the keys.

A number is an ``int`` or ``float``, not a ``bool``, that converts to a
finite float: an integer too large for a float is refused.
"""

from __future__ import annotations

import math

from .geometry import PoseSE3


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def numbers(*shapes: tuple, positive: bool = False) -> tuple:
    """Numbers nested as lists and tuples in one of ``shapes`` (``()`` is
    one number, ``(3,)`` three, ``(3, 3)`` three rows of three), all above
    zero when ``positive``."""
    def fits(value, shape: tuple) -> bool:
        if not shape:
            return _number(value) and not (positive and value <= 0)
        return (isinstance(value, (list, tuple)) and len(value) == shape[0]
                and all(fits(v, shape[1:]) for v in value))

    size = math.prod(shapes[0])
    return (lambda value: any(fits(value, shape) for shape in shapes),
            f"{'a' if size == 1 else size} finite {'positive ' if positive else ''}"
            f"number{'s' * (size > 1)}")


SCALAR = numbers(())
LENGTH = numbers((), positive=True)
POINT = numbers((3,))
EXTENTS = numbers((3,), positive=True)
_NINE_NUMBERS, _ = numbers((9,), (3, 3))


def _is_rotation(value) -> bool:
    if not _NINE_NUMBERS(value):
        return False
    try:
        PoseSE3(value, (0.0, 0.0, 0.0))
    except ValueError:
        return False
    return True


ROTATION = (_is_rotation, "9 finite numbers, flat or 3x3, that form a rotation")
STR = (lambda v: isinstance(v, str), "a string")
BOOL = (lambda v: isinstance(v, bool), "true or false")
LIST = (lambda v: isinstance(v, list), "a list")
DICT = (lambda v: isinstance(v, dict), "an object")
INT = (_integer, "an integer")
NATURAL = (lambda v: _integer(v) and v >= 0, "an integer >= 0")
COUNT = (lambda v: _integer(v) and v >= 1, "an integer >= 1")
ANY = (lambda v: True, "")
UNIT = (lambda v: _number(v) and 0.0 <= v <= 1.0, "a number in [0, 1]")


def list_of(item: tuple) -> tuple:
    """A list whose every item has the shape ``item``."""
    accepts, wants = item
    return (lambda v: isinstance(v, list) and all(map(accepts, v)),
            f"a list, each item {wants}")


def mapping_of(value: tuple) -> tuple:
    """An object whose every value has the shape ``value``."""
    accepts, wants = value
    return (lambda v: isinstance(v, dict) and all(map(accepts, v.values())),
            f"an object, each value {wants}")


def or_null(shape: tuple) -> tuple:
    """``shape``, or null."""
    accepts, wants = shape
    return (lambda v: v is None or accepts(v), f"{wants} or null")


# Relation triples: (predicate, subject, object), each read as a string.
TRIPLES = list_of((lambda v: isinstance(v, (list, tuple)) and len(v) == 3, "a list of 3"))


def key_errors(item, what: str, keys: dict[str, tuple]) -> list[str]:
    """What a reader would trip over in one mapping: the mapping itself,
    a missing key that has no default, or a value of the wrong shape. A
    key ending in "?" is read with a default and may be left out."""
    if not isinstance(item, dict):
        return [f"{what} is not an object"]
    errors = []
    for key, (accepts, wants) in keys.items():
        defaulted, key = key.endswith("?"), key.rstrip("?")
        if key not in item:
            if not defaulted:
                errors.append(f"{what} has no {key!r}")
        elif not accepts(item[key]):
            errors.append(f"{what}: {key!r} must be {wants}")
    return errors
