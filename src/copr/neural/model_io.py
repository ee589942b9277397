"""Binary model serialization.

Format: magic ``CPRM``, u32 LE version (=1), u32 LE layer count, then per
layer: u32 in_dim, u32 out_dim, u32 activation code (0=GeLU, 1=Identity),
out*in f32 LE weights row-major, out f32 LE biases. Weights persist in f32
even though the in-memory model is float64; a parameter beyond the f32
range, which would be written as inf, is refused before the file is written.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import ParseError, RefusedNonFinite
from ..files import read_bytes, unpack_header, write_files
from .core import Activation, Layer, MlpModel

MODEL_MAGIC = b"CPRM"
MODEL_VERSION = 1
_MODEL_HEADER = "<4sII"  # magic, version, layer count


def save_model(model: MlpModel, path) -> None:
    chunks = [struct.pack(_MODEL_HEADER, MODEL_MAGIC, MODEL_VERSION, len(model.layers))]
    with np.errstate(over="ignore"):
        params = model.views(model.flat.astype("<f4"))
    for i, (layer, (weights, bias)) in enumerate(zip(model.layers, params)):
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise RefusedNonFinite(f"layer {i}: parameters are not finite in f32")
        out_dim, in_dim = layer.weights.shape
        chunks += [struct.pack("<III", in_dim, out_dim, layer.activation.value), weights.tobytes(), bias.tobytes()]
    write_files((path, b"".join(chunks)), what="model")


def load_model(path) -> MlpModel:
    blob = read_bytes(path, "model")
    (n_layers,) = unpack_header(blob, _MODEL_HEADER, MODEL_MAGIC, MODEL_VERSION, "model")
    offset = struct.calcsize(_MODEL_HEADER)
    layers = []
    for _ in range(n_layers):
        if offset + 12 > len(blob):
            raise ParseError("truncated layer header", offset=offset)
        in_dim, out_dim, act_code = struct.unpack_from("<III", blob, offset)
        offset += 12
        try:
            act = Activation(act_code)
        except ValueError as exc:
            raise ParseError(f"unknown activation code {act_code}", offset=offset - 4) from exc
        size = out_dim * (in_dim + 1)  # the weights, then the biases
        if offset + 4 * size > len(blob):
            raise ParseError("truncated layer payload", offset=offset)
        # A corrupted word may be a signalling NaN, whose cast warns; Layer
        # refuses it with a typed error.
        with np.errstate(invalid="ignore"):
            values = np.frombuffer(blob, dtype="<f4", count=size, offset=offset).astype(np.float64)
        offset += 4 * size
        weights, bias = values[: out_dim * in_dim].reshape(out_dim, in_dim), values[out_dim * in_dim :]
        layers.append(Layer(weights=weights, bias=bias, activation=act))
    if offset != len(blob):
        raise ParseError(f"{len(blob) - offset} trailing bytes after last layer", offset=offset)
    return MlpModel(layers=tuple(layers))
