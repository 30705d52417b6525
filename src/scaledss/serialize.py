"""Canonical JSON for complexes, scalings, and certificates: the decoders
that `verify` runs, and `canonical_dumps`.

One wire format: sorted keys, compact separators, canonical array orders.
Files round-trip byte-identically.  The encoders are producer code and
live in `produce`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

from .complexes import OrderedComplex, _require_labels, close_tuples
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


def complex_from_json(data: dict) -> OrderedComplex:
    with _shape_errors("complex"):
        vertices = _array(data["vertices"], "vertices")
        maximal = [tuple(_array(t, "a simplex"))
                   for t in _array(data["maximal_simplices"], "maximal_simplices")]
        _require_labels(vertices, "vertex label")
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise InputError("duplicate vertex labels")
        for t in maximal:
            if len(set(t)) != len(t):
                raise InputError(f"tuple {t} has duplicate vertices")
            unknown = set(t) - vset
            if unknown:
                raise InputError(f"tuple {t} uses unknown vertices {sorted(unknown)}")
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


def _attach_from_json(data: dict) -> tuple[tuple[str, str], ...]:
    """A JSON vertex map as a step records it; the step checks its labels."""
    return tuple(sorted(data.items()))


# The certificate decoder imports the kernel on first use, so the commands
# that print complexes never load it.

_RETIRED = {
    "an2": ": in this certificate format the an2 generator is attached by an an2_marks step",
    "transport": ": in this certificate format a transport is spliced: its inner steps, relabelled "
                 "through its map, stand in its place",
}


def _step_decoder() -> Callable[[dict], Step]:
    """The step decoder, with the kernel names bound once for all the steps
    of one certificate.  A step, like a certificate, holds no key its kind
    does not read, and a generator step is its kind and its attach map.  A
    step kind that older files held exits 2 naming the form that replaced
    it."""
    from .certificates import BatchPushout, GeneratorPushout, ScalingExtension
    from .generators import KINDS

    def decode(data: dict) -> Step:
        kind = data.get("kind")
        if kind == "an2_marks":
            _only_keys(data, ("kind", "attach"), "an2_marks step")
            return ScalingExtension(_attach_from_json(data["attach"]))
        if kind == "batch":
            _only_keys(data, ("kind", "items"), "batch step")
            return BatchPushout(tuple(map(decode, _array(data["items"], "items"))))  # type: ignore[arg-type]
        if kind not in KINDS:
            raise InputError(f"unknown step kind {kind!r}" + _RETIRED.get(kind, ""))
        _only_keys(data, ("kind", "attach"), f"{kind} step", ": in this certificate format a generator step "
                   "records only its kind and attach map, and the verifier derives its parameters")
        return GeneratorPushout(kind, _attach_from_json(data["attach"]))

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
