"""Single-file checkpoints: one JSON header line, then raw float64 data.

The header carries the model configuration, the optimizer step counter,
and a manifest of (name, kind, shape, byte offset) entries; array bytes
follow in manifest order as little-endian 64-bit floats.  Round-trips are
bit-exact.  Loading checks that the entries tile the data exactly: an entry
that starts off the end of the previous one or runs past the file, and
bytes after the last entry, are errors that name the file and the entry.
It then fills the store that `init_model` builds from the saved config,
through the same `_entries` walk that saving writes with; an entry the
model lacks, a model entry the file lacks, an entry listed twice and a
shape that differs are errors that name the file and the entry.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .head import PolygonHeadConfig, init_model
from .params import ParamStore

FORMAT_NAME = "polymap-checkpoint-v1"


def _entries(store: ParamStore):
    for name, t in store.params.items():
        yield name, "param", t.data
    for name, arr in store.buffers.items():
        yield name, "buffer", arr
    for name, arr in store.moment1.items():
        yield name, "moment1", arr
    for name, arr in store.moment2.items():
        yield name, "moment2", arr


def save_checkpoint(path: str | Path, cfg: PolygonHeadConfig, store: ParamStore) -> None:
    manifest = []
    blobs = []
    offset = 0
    for name, kind, arr in _entries(store):
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        manifest.append({"name": name, "kind": kind, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    header = {
        "format": FORMAT_NAME,
        "config": dataclasses.asdict(cfg),
        "step": store.step,
        "manifest": manifest,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path: str | Path) -> tuple[PolygonHeadConfig, ParamStore]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        data = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} file: {path}")
    cfg_dict = dict(header["config"])
    cfg_dict["stem_channels"] = tuple(cfg_dict.get("stem_channels", ()))
    cfg = PolygonHeadConfig(**cfg_dict)
    arrays = {}
    end = 0
    name = kind = None
    for entry in header["manifest"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        kind = entry["kind"]
        name = entry["name"]
        if start != end:
            raise ValueError(f"{path}: {kind} {name!r} starts at byte {start}, expected {end}")
        end = start + 8 * count
        if end > len(data):
            raise ValueError(
                f"{path}: {kind} {name!r} needs bytes {start}..{end}, "
                f"but the data holds {len(data)}"
            )
        if (kind, name) in arrays:
            raise ValueError(f"{path}: {kind} {name!r} appears twice")
        arrays[kind, name] = np.frombuffer(data, dtype="<f8", count=count,
                                           offset=start).reshape(shape)
    if end != len(data):
        raise ValueError(
            f"{path}: {len(data) - end} bytes follow the last entry ({kind} {name!r})"
        )

    store = init_model(cfg, detection=("param", "det.fc1.w") in arrays)
    store.step = int(header["step"])
    for name, kind, arr in _entries(store):
        saved = arrays.pop((kind, name), None)
        if saved is None:
            raise ValueError(f"{path}: the model's {kind} {name!r} is missing from the file")
        if saved.shape != arr.shape:
            raise ValueError(
                f"{path}: {kind} {name!r} has shape {saved.shape}, the model's is {arr.shape}"
            )
        arr[...] = saved
    if arrays:
        kind, name = next(iter(arrays))
        raise ValueError(f"{path}: {kind} {name!r} is not in the model that the config builds")
    return cfg, store
