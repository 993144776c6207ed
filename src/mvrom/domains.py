"""Domains of settings, each declared once.

A domain is the set of values a setting may take: a predicate ``ok``, the
text ``need`` that says what it asks, and its readers.  Called with a name
and text, it reads config text or a flag; ``json`` reads a JSON checkpoint
header value; ``check`` tests a value as it is.  A value outside it raises
the ConfigError ``<name> must be <need>, got <value>``.  Config keys
(``experiments.KEYS``), dataclass fields (declared by ``setting``, checked on
construction by ``check_fields``) and checkpoint header fields
(``vae._HEADER``) refer to the same objects, so what one refuses, all refuse.
"""

from __future__ import annotations

import dataclasses
import functools
import math


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


def require(ok: bool, name: str, need: str, value) -> None:
    """A ConfigError naming the flag, config key or field ``name`` unless ``ok``."""
    if not ok:
        raise ConfigError(f"{name} must be {need}, got {value!r}")


_JSON_TYPES = {int: int, float: (int, float), str: str, list: list}


class Domain:
    """The values of type ``conv`` for which ``ok`` holds; ``need`` says which."""

    def __init__(self, conv, need: str, ok):
        self.conv, self.need, self.ok = conv, need, ok

    def __call__(self, name: str, text):
        """``conv(text)``; text it cannot read is not an integer, or not a number."""
        text = str(text).strip()
        try:
            value = self.conv(text)
        except ValueError:
            require(False, name, "an integer" if self.conv is int else "a number", text)
        return self.check(name, value)

    def check(self, name: str, value):
        require(self.ok(value), name, self.need, value)
        return value

    def holds(self, value) -> bool:
        """Whether a JSON value has ``conv``'s type (an integer is also a
        number; a bool is neither) and lies in the domain."""
        return (isinstance(value, _JSON_TYPES[self.conv]) and not isinstance(value, bool)
                and self.ok(value))

    def json(self, name: str, value):
        require(self.holds(value), name, self.need, value)
        return value


class Record:
    """The JSON form of the dataclass ``cls``: a list with one value per field
    that declares a domain, each read by it; ``json`` returns ``cls(*values)``
    and names ``name`` in a rule of ``cls`` that fails."""

    def __init__(self, cls):
        self.cls = cls

    def json(self, name: str, value):
        fields = _field_domains(self.cls)
        require(isinstance(value, list) and len(value) == len(fields), name,
                f"[{', '.join(field for field, _ in fields)}]", value)
        values = [domain.json(f"{name} entry {field!r}", v)
                  for (field, domain), v in zip(fields, value)]
        try:
            return self.cls(*values)
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from None


def setting(domain: Domain, default=dataclasses.MISSING):
    """A dataclass field whose value must lie in ``domain``."""
    return dataclasses.field(default=default, metadata={"domain": domain})


@functools.cache  # once per class
def _field_domains(cls) -> tuple:
    return tuple((f.name, f.metadata["domain"]) for f in dataclasses.fields(cls)
                 if "domain" in f.metadata)


def check_fields(obj, skip=()) -> None:
    """As ``__post_init__``: each ``setting`` field of ``obj``, but those in
    ``skip``, holds a value in its domain."""
    for name, domain in _field_domains(type(obj)):
        if not domain.ok(value := getattr(obj, name)) and name not in skip:
            domain.check(name, value)


def comma_list(item, distinct: bool = False, required: bool = False):
    """The parser of comma-separated ``item`` values: no value twice when
    ``distinct``, and at least one when ``required``."""
    need = ("one or more entries" if required else "a list") + " with no entry repeated" * distinct

    def parse(name: str, text):
        values = [item(name, part) for part in str(text).split(",") if part.strip()]
        unique = len(set(values)) if distinct else len(values)
        require(unique == len(values) >= required, name, need, str(text).strip())
        return values
    return parse


def check_range(name: str, bounds) -> list:
    """``bounds`` if it is a range [lo, hi] with lo <= hi; a ConfigError naming ``name`` if not."""
    require(len(bounds) == 2 and bounds[0] <= bounds[1], name, "a range lo, hi with lo <= hi",
            bounds)
    return bounds


def one_of(*choices) -> Domain:
    return Domain(str, "one of " + ", ".join(choices), choices.__contains__)


def even_at_least(least: int) -> Domain:
    return Domain(int, f"even and at least {least}", lambda v: v >= least and v % 2 == 0)


TEXT = Domain(str, "text", lambda v: True)
FINITE = Domain(float, "finite", math.isfinite)
POSITIVE = Domain(float, "positive and finite", lambda v: 0 < v < math.inf)
NONNEGATIVE = Domain(float, "nonnegative and finite", lambda v: 0 <= v < math.inf)
FRACTION = Domain(float, "in (0, 1)", lambda v: 0 < v < 1)
SLOPE = Domain(float, "in [0, 1)", lambda v: 0 <= v < 1)
COUNT = Domain(int, "at least 1", lambda v: v >= 1)
NATURAL = Domain(int, "nonnegative", lambda v: v >= 0)
GRID = even_at_least(16)
KLEIN_RESOLUTION = Domain(int, "at least 64", lambda v: v >= 64)
ACTIVATION = one_of("relu", "leaky_relu")
FLOW = one_of("exp-decay", "identity")
POLICY = one_of("raise", "skip")
LATENT_KIND = one_of("euclidean", "torus", "klein", "pointcloud")
# a latent kind, or rN (N >= 1), the sweep shorthand for a euclidean R^N
LATENT = Domain(str, "euclidean, torus, klein, pointcloud or rN with N >= 1", lambda v:
                LATENT_KIND.ok(v) or v[:1] == "r" and v[1:].isdecimal() and int(v[1:]) > 0)
