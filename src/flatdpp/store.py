"""Record files: JSON with float64 arrays as base64 blocks.

:func:`write_json` writes a record as JSON bytes, each array as a block
``{"shape": [rows, cols], "data": base64}``, where data is the base64 of the
block's float64 entries in column-major order and the machine's byte order,
written in chunks so that no text of a block is ever held whole; the CLI's
``limit`` streams its output this way. :func:`read_json` reads such a file
back to the same dict: it cuts each block's base64 out of the file's bytes,
parses only the skeleton left, and decodes each block from the file's bytes.

The zero kind, the read-only zero-stride view ``np.broadcast_to(0.0,
shape)``, is written from one encoded zero chunk (the bytes a dense zero
array writes), and a block whose data is exactly the base64 of +0.0 entries
reads back as it. A pair maps to its record by :mod:`flatdpp.ensembles`.
"""

from __future__ import annotations

import binascii
import json
import logging
import re
from collections.abc import Callable, Iterator
from functools import lru_cache

import numpy as np

from ._numerics import _is_zero_kind

logger = logging.getLogger(__name__)

#: Bytes of a block encoded per base64 chunk. A multiple of 3, so the chunks'
#: base64 texts join, without padding, into the base64 text of the block.
_CHUNK_BYTES = 3 << 16


def _base64_chunks(arr: np.ndarray) -> Iterator[bytes]:
    """Base64 of arr's float64 entries in column-major order, chunk by chunk.

    Reads arr's own buffer when it is Fortran-contiguous (the transpose of a
    C-ordered array is); any other layout is copied once, as a whole. The
    zero kind is written from one cached encoded zero chunk: the bytes of a
    dense zero array, with nothing copied.
    """
    if _is_zero_kind(arr):
        full, rest = divmod(8 * arr.size, _CHUNK_BYTES)
        chunk = _zero_base64(_CHUNK_BYTES)
        for _ in range(full):
            yield chunk
        if rest:
            yield binascii.b2a_base64(bytes(rest), newline=False)
        return
    data = np.asfortranarray(arr, dtype=np.float64).ravel(order="F").view(np.uint8)
    for lo in range(0, data.size, _CHUNK_BYTES):
        yield binascii.b2a_base64(data[lo:lo + _CHUNK_BYTES], newline=False)


@lru_cache(maxsize=1)
def _zero_base64(nbytes: int) -> bytes:
    """The base64 of nbytes zero bytes, for the chunk size in use."""
    return binascii.b2a_base64(bytes(nbytes), newline=False)


def _zero_block(buf: bytes, lo: int, hi: int, shape) -> np.ndarray | None:
    """The zero kind of the given shape when buf[lo:hi] is exactly the
    base64 of its +0.0 entries, else None. Decided by a chunked comparison
    with the encoded zero chunk; nothing is decoded."""
    nbytes = 8 * shape[0] * shape[1]
    # the text of eight or more zero bytes starts with eleven A's
    if nbytes == 0 or hi - lo != 4 * -(-nbytes // 3) or not buf.startswith(b"AAAA", lo):
        return None
    full, rest = divmod(nbytes, _CHUNK_BYTES)
    chunk = _zero_base64(_CHUNK_BYTES) if full else b""
    tail = binascii.b2a_base64(bytes(rest), newline=False)
    if not (buf.startswith(tail, hi - len(tail))
            and all(buf.startswith(chunk, lo + k * len(chunk)) for k in range(full))):
        return None
    logger.debug("a %dx%d block's text is the base64 of +0.0 entries: read as the "
                 "zero kind", *shape)
    return np.broadcast_to(0.0, tuple(shape))


def _block_array(buf: bytes, lo: int, hi: int, shape) -> np.ndarray:
    """The array of a block {"shape", "data"} whose base64 is buf[lo:hi]:
    the zero kind when that is exactly the base64 of +0.0 entries (a -0.0
    or any other entry keeps it dense), else a read-only, Fortran-ordered
    view of the bytes a strict a2b_base64 decodes from a memoryview of buf.
    A bad shape, data that is not base64, or a size that does not match the
    shape is a ValueError."""
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(s) is int and s >= 0 for s in shape)):
        raise ValueError(f"ensemble record: a block has shape {shape!r}, not [rows, cols]")
    zero = _zero_block(buf, lo, hi, shape)
    if zero is not None:
        return zero
    try:
        data = binascii.a2b_base64(memoryview(buf)[lo:hi], strict_mode=True)
    except binascii.Error as err:
        raise ValueError(f"ensemble record: a block's data is not base64 ({err})") from None
    rows, cols = shape
    if len(data) != 8 * rows * cols:
        raise ValueError(f"ensemble record: a {rows}x{cols} block holds {len(data)} bytes, "
                         f"not {8 * rows * cols}")
    return np.frombuffer(data, dtype=np.float64).reshape((rows, cols), order="F")


#: A "data" key and the quote that opens its string.
_DATA_KEY = re.compile(rb'"data"[ \t\n\r]*:[ \t\n\r]*"')


def read_json(path):
    """The JSON document in the file at path, each block {"shape", "data"}
    read as its array (:func:`_block_array`): for a file that
    :func:`write_json` wrote, the dict it was given.

    A file in another encoding is first re-encoded to UTF-8. In a document
    without a backslash every quote delimits a string, so each string that
    follows a "data" key ends at the next quote: it is cut out and replaced
    by its index, json.loads parses only the skeleton left, and each block
    is decoded from the file's bytes. A document with a backslash is parsed
    whole, and each block's data is decoded from its ASCII encoding.

    A "data" member that is not the base64 string of a block {"shape",
    "data"}, a block that repeats a key, or a block with a bad shape, data
    that is not base64 or a size that does not match its shape, is a
    ValueError that starts "ensemble record:". A document that json.loads
    refuses raises json.loads's error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    encoding = json.detect_encoding(raw)
    if encoding != "utf-8":
        raw = raw.decode(encoding, "surrogatepass").encode("utf-8", "surrogatepass")
    parts, spans, at = [], [], 0
    if b"\\" not in raw:
        while (key := _DATA_KEY.search(raw, at)) and (end := raw.find(b'"', key.end())) >= 0:
            parts += [raw[at:key.end()], b"%d" % len(spans)]
            spans.append((key.end(), end))
            at = end
    parts.append(raw[at:])

    def block(pairs):
        obj = dict(pairs)
        if "data" not in obj:
            return obj
        if len(obj) < len(pairs):
            # json.loads keeps the last value of a repeated key, and a cut
            # string that it drops would never be checked
            raise ValueError("ensemble record: a block {\"shape\", \"data\"} repeats a key")
        if obj.keys() != {"shape", "data"} or not isinstance(obj["data"], str):
            raise ValueError('ensemble record: "data" is only the base64 string of a block '
                             '{"shape": [rows, cols], "data": base64}')
        if spans:
            lo, hi = spans[int(obj["data"])]
            return _block_array(raw, lo, hi, obj["shape"])
        # a non-ASCII character becomes "?", which base64 refuses
        data = obj["data"].encode("ascii", "replace")
        return _block_array(data, 0, len(data), obj["shape"])

    try:
        return json.loads(b"".join(parts).decode("utf-8", "surrogatepass"),
                          object_pairs_hook=block)
    except ValueError:
        if spans:
            # json.loads did not see the cut strings: a document it refuses
            # raises its own error, at its place in the file
            json.loads(raw)
        raise


def write_json(obj, write: Callable[[bytes], object]) -> None:
    """Write obj as JSON in ASCII bytes through write, as json.dumps writes
    it, where each ndarray value is written as a block {"shape": [rows,
    cols], "data": base64} of its float64 entries in column-major order:
    its base64 is written chunk by chunk (:func:`_base64_chunks`), so its
    text is never held whole. Dicts need str keys.
    """
    if isinstance(obj, np.ndarray):
        write(b'{"shape": %s, "data": "' % json.dumps(list(obj.shape)).encode())
        for chunk in _base64_chunks(obj):
            write(chunk)
        write(b'"}')
    elif isinstance(obj, dict):
        write(b"{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"write_json: key {key!r} is not a str")
            write(b"%s%s: " % (b", " if i else b"", json.dumps(key).encode()))
            write_json(value, write)
        write(b"}")
    else:
        write(json.dumps(obj).encode())
