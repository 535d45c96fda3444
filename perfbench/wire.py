"""The serving wire protocol, written from its documentation.

Every frame, in both directions, is::

    [4-byte big-endian header length][JSON header][payload_nbytes raw bytes]

A predict request carries ``kind``, ``id``, ``shape``, ``dtype`` and
``payload_nbytes`` in its header and the raw float32 sample as payload.
The load generator frames requests with this module instead of the
program's own client, so a change to the program's framing code cannot
make the generator agree with the server by accident.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Tuple

import numpy as np

_LEN = struct.Struct(">I")


def encode_frame(header: Dict[str, Any], payload: bytes = b"") -> bytes:
    if payload:
        header = dict(header, payload_nbytes=len(payload))
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(raw)) + raw + payload


def encode_predict(request_id: int, sample: np.ndarray) -> bytes:
    sample = np.ascontiguousarray(sample, dtype=np.float32)
    return encode_frame(
        {"kind": "predict", "id": int(request_id),
         "shape": list(sample.shape), "dtype": "float32"},
        sample.tobytes(),
    )


def encode_ping(request_id: int) -> bytes:
    return encode_frame({"kind": "ping", "id": int(request_id)})


class FrameReader:
    """Incremental decoder: feed received bytes, take whole frames out."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Tuple[Dict[str, Any], bytes]]:
        self._buffer += data
        frames = []
        while True:
            if len(self._buffer) < 4:
                break
            (header_len,) = _LEN.unpack_from(self._buffer, 0)
            if len(self._buffer) < 4 + header_len:
                break
            header = json.loads(bytes(self._buffer[4:4 + header_len]))
            nbytes = int(header.get("payload_nbytes", 0))
            end = 4 + header_len + nbytes
            if len(self._buffer) < end:
                break
            frames.append((header, bytes(self._buffer[4 + header_len:end])))
            del self._buffer[:end]
        return frames
