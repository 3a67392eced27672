"""Persistence for correction layers and learned CDF models.

A Shift-Table layer is a plain array and the paper stresses it is
*detachable* (§3.9: it "can be disabled to free up memory space on
run-time while the model can still be used").  Serialising it
independently of the model makes that deployment story concrete: build
once, ship the ``.npz``, re-attach at run time.

Bottom up:

* the **container** (:func:`write_archive` / :func:`read_archive`) —
  the only ``np.savez`` / ``np.load`` call sites in the package.  Every
  artifact is one ``.npz`` of a JSON manifest, numpy arrays and a
  SHA-256 over both, published by fsync + atomic rename and read back
  verified; checkpoint segments (:mod:`repro.engine.persist`) and the
  per-object files below share its write, verify and error path;
* the **state codecs** (:func:`model_to_state` / :func:`model_from_state`,
  :func:`layer_to_state` / :func:`layer_from_state`) — each turns an
  object into ``(scalars, arrays)`` — a JSON-safe scalar dict plus a
  dict of numpy arrays — and back, **without refitting**.  The engine's
  two model families (interpolation and linear-root RMI) and both
  layers (R, S) round-trip bit-identically; any other kind is refused
  by name, never misread;
* :func:`save_layer` / :func:`load_layer` and :func:`save_model` /
  :func:`load_model` — one codec state in one container.

Only numpy-native state is stored; loading never executes code.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from ..hardware.tracker import alloc_region
from ..models.interpolation import InterpolationModel
from ..models.rmi import RMIModel, _LEAF_ENTRY_BYTES
from .compact import CompactShiftTable
from .shift_table import ShiftTable

#: Container format version; bump on incompatible layout changes.
FORMAT_VERSION = 1

#: Manifest magic of a :func:`save_layer` / :func:`save_model` file.
LAYER_FORMAT_NAME = "repro-layer"
MODEL_FORMAT_NAME = "repro-model"


class IndexPersistError(ValueError):
    """A saved artifact could not be written or read back.

    Raised with a human-readable reason: not an artifact of the expected
    kind, an unsupported format version, a checksum mismatch
    (corruption), or state the codecs cannot encode.
    """


# ----------------------------------------------------------------------
# the container: crash-safe write, checksummed read
# ----------------------------------------------------------------------
def fsync_dir(path: Path) -> None:
    """Flush a directory entry to disk (no-op where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, fill) -> None:
    """Publish ``path`` so a crash never leaves a partial file there.

    ``fill(fh)`` writes to a ``mkstemp`` file in the target directory —
    *unique per writer*, so two processes publishing the same path
    cannot interleave bytes into one shared ``.tmp``; last
    ``os.replace`` wins with both results intact.  The temp file is
    flushed and ``fsync``\\ ed before the rename and the parent
    directory is fsynced after it: without both, a power loss shortly
    after "saving" can leave the *old* name pointing at the new
    (unwritten) bytes — an atomic rename is only crash-durable once the
    data below it is.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp_path = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fill(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    fsync_dir(path.parent)


def atomic_write_text(path: Path, text: str) -> None:
    """:func:`atomic_write` of a small UTF-8 text file."""
    atomic_write(path, lambda fh: fh.write(text.encode("utf-8")))


def _checksum(manifest_json: str, arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the manifest and every array's dtype/shape/bytes."""
    digest = hashlib.sha256()
    digest.update(manifest_json.encode("utf-8"))
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.data)  # no tobytes() copy: hash in place
    return digest.hexdigest()


def write_archive(
    path: str | Path, format_name: str, body: dict,
    arrays: dict[str, np.ndarray],
) -> dict:
    """Write one checksummed ``.npz`` artifact; returns its manifest
    (``body`` plus format magic and version).  Uncompressed: load speed
    is the point of persistence and key arrays compress poorly anyway.
    """
    manifest = {
        "format": format_name, "format_version": FORMAT_VERSION, **body,
    }
    manifest_json = json.dumps(manifest, sort_keys=True)
    payload = {
        "manifest": np.asarray(manifest_json),
        "checksum": np.asarray(_checksum(manifest_json, arrays)),
    }
    payload.update(arrays)
    atomic_write(Path(path), lambda fh: np.savez(fh, **payload))
    return manifest


def read_archive(
    path: str | Path, format_name: str
) -> tuple[dict, dict[str, np.ndarray]]:
    """``(manifest, arrays)`` of an artifact :func:`write_archive` wrote.

    Raises :class:`IndexPersistError` for anything that is not a healthy
    artifact of kind ``format_name``: missing, truncated, corrupted,
    newer-versioned or foreign files.  Never unpickles.
    """
    # the ``with`` wraps the np.load call itself: the archive's zip
    # handle — and the file descriptor under it — is closed on every
    # exit path, including the error raises below, instead of leaking
    # until the garbage collector gets around to it
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            manifest_json = str(archive["manifest"])
            manifest = json.loads(manifest_json)
            found = (manifest.get("format")
                     if isinstance(manifest, dict) else None)
            if found != format_name:
                raise IndexPersistError(
                    f"{path} is not a saved {format_name} artifact "
                    f"(format={found!r})"
                )
            version = int(manifest.get("format_version", -1))
            if version > FORMAT_VERSION or version < 1:
                raise IndexPersistError(
                    f"{path} uses container format version {version}; "
                    f"this library reads versions 1..{FORMAT_VERSION} — "
                    "upgrade the library or re-save the artifact"
                )
            arrays = {
                name: archive[name]
                for name in archive.files
                if name not in ("manifest", "checksum")
            }
            expected = str(archive["checksum"])
    except (OSError, ValueError, TypeError, KeyError,
            zipfile.BadZipFile) as exc:
        if isinstance(exc, IndexPersistError):
            raise
        raise IndexPersistError(
            f"{path} is not a readable {format_name} artifact: {exc}"
        ) from exc
    actual = _checksum(manifest_json, arrays)
    if actual != expected:
        raise IndexPersistError(
            f"{path} failed its checksum (expected {expected[:12]}…, "
            f"got {actual[:12]}…) — the file is corrupted or was "
            "modified after saving"
        )
    return manifest, arrays


# ----------------------------------------------------------------------
# state codecs: (scalars, arrays) <-> fitted objects, no refitting
# ----------------------------------------------------------------------

#: Model families :func:`model_to_state` can encode: the engine's two.
SERIALIZABLE_MODELS = ("interpolation", "rmi")


def _unserialisable(what: str) -> str:
    return (f"no state codec for {what}; serialisable families: "
            f"{SERIALIZABLE_MODELS} (RMI with a linear root)")


def model_to_state(model) -> tuple[dict, dict]:
    """Encode a fitted CDF model as ``(scalars, arrays)``.

    ``scalars`` is a JSON-safe dict whose ``"kind"`` names the family
    (one of :data:`SERIALIZABLE_MODELS`); ``arrays`` holds the model's
    numpy parameter arrays.  :func:`model_from_state` inverts this
    bit-identically without refitting.  Raises ``TypeError`` for any
    other model type (the paper harness's other families, a cubic- or
    radix-root RMI, ``FunctionModel``).
    """
    if isinstance(model, InterpolationModel):
        return {
            "kind": "interpolation", "num_keys": model.num_keys,
            "min": model._min, "max": model._max, "scale": model._scale,
        }, {}
    if isinstance(model, RMIModel) and model.root_kind == "linear":
        return {
            "kind": "rmi", "num_keys": model.num_keys, "name": model.name,
            "root_kind": model.root_kind, "num_leaves": model.num_leaves,
            "min": model._min, "max": model._max,
            "root_params": list(model._root_params),
            "mean_abs_error": model.mean_abs_error,
            "max_abs_error": model.max_abs_error,
        }, {
            "slopes": model._slopes, "intercepts": model._intercepts,
            "err_lo": model._err_lo, "err_hi": model._err_hi,
        }
    root = getattr(model, "root_kind", None)
    raise TypeError(_unserialisable(
        f"model type {type(model).__name__}"
        + (f" with a {root} root" if root else "")))


def model_from_state(scalars: dict, arrays: dict):
    """Rebuild the model :func:`model_to_state` encoded (no refitting).

    Simulated-memory regions are re-allocated fresh (their addresses are
    process-local); every parameter array and scalar is restored
    bit-identically, so predictions match the saved model exactly.
    Raises ``ValueError`` naming any other ``kind`` (or RMI root).
    """
    kind = scalars["kind"]
    if kind == "interpolation":
        model = InterpolationModel.__new__(InterpolationModel)
        model.num_keys = int(scalars["num_keys"])
        model._min = float(scalars["min"])
        model._max = float(scalars["max"])
        model._scale = float(scalars["scale"])
        return model
    if kind == "rmi" and scalars["root_kind"] == "linear":
        model = RMIModel.__new__(RMIModel)
        model.num_keys = int(scalars["num_keys"])
        model.name = str(scalars["name"])
        model.root_kind = "linear"
        model.num_leaves = int(scalars["num_leaves"])
        model._min = float(scalars["min"])
        model._max = float(scalars["max"])
        model._root_params = tuple(float(p) for p in scalars["root_params"])
        model._slopes = arrays["slopes"]
        model._intercepts = arrays["intercepts"]
        model._err_lo = arrays["err_lo"]
        model._err_hi = arrays["err_hi"]
        model.mean_abs_error = float(scalars["mean_abs_error"])
        model.max_abs_error = float(scalars["max_abs_error"])
        model.is_monotone = False
        model._region = alloc_region(
            f"rmi_leaves_{id(model):x}", _LEAF_ENTRY_BYTES, model.num_leaves
        )
        return model
    if kind == "rmi":
        kind = f"rmi with a {scalars['root_kind']} root"
    raise ValueError(_unserialisable(f"model kind {kind!r}"))


def layer_to_state(layer) -> tuple[dict, dict]:
    """Encode a correction layer (R- or S-mode) as ``(scalars, arrays)``."""
    if isinstance(layer, ShiftTable):
        return (
            {"kind": "shift_table", "num_keys": layer.num_keys},
            {"deltas": layer.deltas, "widths": layer.widths,
             "counts": layer.counts},
        )
    if isinstance(layer, CompactShiftTable):
        return (
            {"kind": "compact_shift_table", "num_keys": layer.num_keys,
             "mean_abs_error": layer.mean_abs_error},
            {"drifts": layer.drifts, "counts": layer.counts},
        )
    raise TypeError(f"no state codec for layer type {type(layer).__name__}")


def layer_from_state(scalars: dict, arrays: dict):
    """Rebuild the layer :func:`layer_to_state` encoded.

    Raises ``ValueError`` naming any other ``kind`` — including
    ``None``, a bare model, which the engine no longer serves.
    """
    kind = scalars["kind"]
    if kind == "shift_table":
        return ShiftTable(
            deltas=arrays["deltas"], widths=arrays["widths"],
            counts=arrays["counts"], num_keys=int(scalars["num_keys"]),
        )
    if kind == "compact_shift_table":
        return CompactShiftTable(
            drifts=arrays["drifts"], counts=arrays["counts"],
            num_keys=int(scalars["num_keys"]),
            mean_abs_error=float(scalars["mean_abs_error"]),
        )
    raise ValueError(
        f"no state codec for layer kind {kind!r}; serialisable layers: "
        "'shift_table' (R), 'compact_shift_table' (S)"
    )


# ----------------------------------------------------------------------
# per-object files: one codec state in one container
# ----------------------------------------------------------------------
def save_layer(layer, path: str | Path) -> None:
    """Write a correction layer (R- or S-mode) to ``path`` (.npz)."""
    scalars, arrays = layer_to_state(layer)
    write_archive(path, LAYER_FORMAT_NAME, {"state": scalars}, arrays)


def load_layer(path: str | Path):
    """Load a layer written by :func:`save_layer` (checksum-verified)."""
    manifest, arrays = read_archive(path, LAYER_FORMAT_NAME)
    return layer_from_state(manifest["state"], arrays)


def save_model(model, path: str | Path) -> None:
    """Write a fitted model of a :data:`SERIALIZABLE_MODELS` family."""
    scalars, arrays = model_to_state(model)
    write_archive(path, MODEL_FORMAT_NAME, {"state": scalars}, arrays)


def load_model(path: str | Path):
    """Load a model written by :func:`save_model` (no refitting)."""
    manifest, arrays = read_archive(path, MODEL_FORMAT_NAME)
    return model_from_state(manifest["state"], arrays)
