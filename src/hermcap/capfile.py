"""JSON cap files.

A cap file records the field (p, k, q, modulus coefficients), the form
identifier, and the member points as normalized homogeneous coordinate
4-tuples of element encodings, sorted by point id.  Serialization is
canonical (sorted keys, fixed separators): the ids a written file reads back
to serialize to its bytes again.

``load_cap_ids(model, path)`` reads a file and ``cap_ids(model, data)`` its
bytes.  Both return sorted PointIds or raise a CapFileError for the first
check that fails, in this order: JSON (capfile-unreadable, also for a file
that cannot be read); an object with every field, each of its type, and
every point a list of integers; p, k, q, modulus and form match the model;
each point, in file order, is four field elements not all zero, normalized
and on the surface; no point repeats; the points form a cap.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import CapFileError
from .hermitian import SurfaceModel, checked_ids, is_cap, normalize_point

FORM_ID = "diagonal"


def serialize_cap(model: SurfaceModel, ids) -> bytes:
    """The canonical bytes of a point set; ``checked_ids``' errors, and ValueError for a repeated id."""
    ids = np.sort(checked_ids(model, ids))
    if (ids[1:] == ids[:-1]).any():
        raise ValueError("a point repeats; a cap file lists each point once")
    spec = model.field.spec
    payload = {
        "q": spec.q,
        "p": spec.p,
        "k": spec.k,
        "modulus": list(model.field.modulus),
        "form": FORM_ID,
        "points": model.coords[ids].tolist(),
    }
    return (json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n").encode()


def write_cap(path, model: SurfaceModel, ids) -> None:
    Path(path).write_bytes(serialize_cap(model, ids))


def _is_int(value) -> bool:
    # JSON 2.0 and true compare equal to 2 and 1 but are not integers
    return type(value) is int


def cap_ids(model: SurfaceModel, data: bytes) -> np.ndarray:
    """The sorted PointIds of cap-file bytes; CapFileError for the first failed check."""
    try:
        payload = json.loads(data)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CapFileError(f"capfile-unreadable: {exc}") from exc
    if not isinstance(payload, dict):
        raise CapFileError(f"capfile-not-an-object: top level is {type(payload).__name__}")
    for key in ("q", "p", "k", "modulus", "form", "points"):
        if key not in payload:
            raise CapFileError(f"capfile-missing-field: {key}")
    for key in ("q", "p", "k"):
        if not _is_int(payload[key]):
            raise CapFileError(f"capfile-bad-field: {key} must be an integer")
    for key in ("modulus", "points"):
        if not isinstance(payload[key], list):
            raise CapFileError(f"capfile-bad-field: {key} must be a list")
    if not all(map(_is_int, payload["modulus"])):
        raise CapFileError("capfile-bad-field: modulus entries must be integers")
    for raw in payload["points"]:
        if not isinstance(raw, list) or not all(map(_is_int, raw)):
            raise CapFileError(f"capfile-bad-coordinates: {raw}")
    spec = model.field.spec
    if (payload["p"], payload["k"], payload["q"]) != (spec.p, spec.k, spec.q):
        raise CapFileError(
            f"capfile-field-mismatch: file has p={payload['p']} k={payload['k']} q={payload['q']}"
        )
    if tuple(payload["modulus"]) != model.field.modulus:
        raise CapFileError("capfile-modulus-mismatch")
    if payload["form"] != FORM_ID:
        raise CapFileError(f"capfile-unknown-form: {payload['form']!r}")
    ids = []
    for raw in payload["points"]:
        try:
            coords = normalize_point(model.field, raw)
        except ValueError:  # not four field elements, or all zero
            raise CapFileError(f"capfile-bad-coordinates: {raw}") from None
        if coords != tuple(raw):
            raise CapFileError(f"capfile-point-not-normalized: {raw}")
        try:
            ids.append(model.point_id(coords))
        except KeyError:
            raise CapFileError(f"capfile-point-off-surface: {raw}") from None
    if len(set(ids)) != len(ids):
        raise CapFileError("capfile-duplicate-points")
    if not is_cap(model, ids):
        raise CapFileError("capfile-not-a-cap")
    return np.array(sorted(ids), dtype=np.int32)


def load_cap_ids(model: SurfaceModel, path) -> np.ndarray:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CapFileError(f"capfile-unreadable: {exc}") from exc
    return cap_ids(model, data)
