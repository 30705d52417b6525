"""Canonical JSON for complexes, scalings, and certificates: the decoders
that `verify` runs, and `canonical_dumps`.

One wire format: sorted keys, compact separators, canonical array orders.
Files round-trip byte-identically.  The encoders are producer code and
live in `produce`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from .complexes import OrderedComplex, _require_strings, close_tuples
from .errors import InputError
from .scaling import ScaledComplex

if TYPE_CHECKING:
    from .certificates import Certificate, Step


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@contextmanager
def _shape_errors(what: str) -> Iterator[None]:
    """Report a JSON value of the wrong shape as an InputError."""
    try:
        yield
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"malformed {what} JSON: missing {exc}") from exc
    except (TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise InputError(f"malformed {what} JSON: {exc}") from exc


def _array(value: Any, what: str) -> list:
    """A JSON array; any other value, even a string or an object, is an input error."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON array, not {type(value).__name__}")
    return value


# the ceiling on a complex's closure, bounded before it is built (see README)
CLOSURE_CEILING = 1 << 21


def complex_from_json(data: dict) -> OrderedComplex:
    with _shape_errors("complex"):
        vertices = _array(data["vertices"], "vertices")
        maximal = [tuple(_array(t, "a simplex"))
                   for t in _array(data["maximal_simplices"], "maximal_simplices")]
        _require_strings(vertices, "vertex label")
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise InputError("duplicate vertex labels")
        for t in maximal:
            if len(set(t)) != len(t):
                raise InputError(f"tuple {t} has duplicate vertices")
            unknown = set(t) - vset
            if unknown:
                raise InputError(f"tuple {t} uses unknown vertices {sorted(unknown)}")
        if (bound := sum((1 << len(t)) - 1 for t in maximal)) > CLOSURE_CEILING:
            raise InputError(f"the sum of 2^k - 1 over the listed k-vertex simplices is {bound}, over {CLOSURE_CEILING}")
        tuples = close_tuples(maximal) | frozenset((v,) for v in vertices)
        return OrderedComplex(tuples, _validated=True)


def scaled_from_json(data: dict) -> ScaledComplex:
    cx = complex_from_json(data)
    with _shape_errors("scaled complex"):
        thin = [tuple(_array(t, "a thin triple")) for t in _array(data.get("thin", []), "thin")]
        return ScaledComplex(cx, thin)


def _only_keys(data: dict, keys: tuple[str, ...], what: str, note: str = "") -> None:
    """Reject a key the decoder does not read.  The decoder reads each of
    `keys` and fails on a missing one, so the object holds another key
    exactly when it holds more keys than these."""
    if len(data) > len(keys):
        extra = sorted(data.keys() - set(keys))
        raise InputError(f"{what} has unknown key {extra[0]!r}{note}")


def _attach_from_json(data: Any, size: Optional[int] = None) -> tuple:
    """The word of an attach object: its values at the keys "0".."r" in
    position order ("10" follows "9"), which must be all its keys, r + 1
    of them or the `size` a step kind fixes; the step checks the values."""
    if type(data) is not dict:
        raise InputError(f"an attach map is a JSON object, not {type(data).__name__}")
    keys = list(map(str, range(len(data) if size is None else size)))
    if len(data) == len(keys) and all(map(data.__contains__, keys)):
        return tuple(map(data.__getitem__, keys))
    stray = data.keys() - set(keys)
    wrong = f"has the key {min(stray)!r}" if stray else f"lacks the key {min(set(keys) - data.keys(), key=int)!r}"
    raise InputError(f'the attach map {wrong}: its keys must be "0".."{len(keys) - 1}"')


# The certificate decoder imports the kernel on first use, so the commands
# that print complexes never load it.

_RETIRED = {
    "an2": ": in this certificate format the an2 generator is attached by an an2_marks step",
    "transport": ": in this certificate format a transport is spliced: its inner steps, relabelled "
                 "through its map, stand in its place",
    "batch": ": in this certificate format a batch is flattened: its items, in order, stand in its place",
}
# what a generator step that holds a key it does not read is told
_GENERATOR_NOTE = (": in this certificate format a generator step records only its kind and attach map, "
                   "and the verifier derives its parameters")


def _step_decoder() -> Callable[[dict], Step]:
    """The step decoder, with the kernel names bound once for all the steps
    of one certificate.  A step, like a certificate, holds no key its kind
    does not read: it is its kind and its attach map, which has five keys
    in an `an2_marks` step.  A step kind that older files held exits 2
    naming the form that replaced it."""
    from .certificates import STEP_KINDS, Step

    def decode(data: dict) -> Step:
        kind = data.get("kind")
        if kind not in STEP_KINDS:
            raise InputError(f"unknown step kind {kind!r}" + _RETIRED.get(kind, ""))
        marks = kind == "an2_marks"
        _only_keys(data, ("kind", "attach"), f"{kind} step", "" if marks else _GENERATOR_NOTE)
        return Step(kind, _attach_from_json(data["attach"], 5 if marks else None))

    return decode


def certificate_from_json(data: dict) -> Certificate:
    from .certificates import Certificate

    with _shape_errors("certificate"):
        read = ("class", "start", "target", "steps") + (("metadata",) if "metadata" in data else ())
        _only_keys(data, read, "certificate")
        return Certificate(
            data["class"],
            scaled_from_json(data["start"]),
            scaled_from_json(data["target"]),
            tuple(map(_step_decoder(), _array(data["steps"], "steps"))),
            metadata=tuple(sorted(data.get("metadata", {}).items())),
        )
