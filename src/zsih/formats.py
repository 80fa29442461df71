"""The framing of the ZSFT, ZSIH and ZSCB binary files: a 4-byte magic,
the u16 format version and the format's own header fields, then a body
sized from the header and checked against the file before it is read.
Every writer goes through ``write_atomic``.
"""

import contextlib
import os
import struct

VERSION = 1
_VERSION_FIELD = struct.Struct("<H")

MODALITY_CODES = {"sketch": 0, "image": 1}
MODALITY_NAMES = {v: k for k, v in MODALITY_CODES.items()}


class FormatError(ValueError):
    """A binary or text input file does not match its declared format."""


def modality_name(code):
    """The modality that a header's modality code stands for."""
    if code not in MODALITY_NAMES:
        raise FormatError(f"unknown modality code {code}")
    return MODALITY_NAMES[code]


@contextlib.contextmanager
def write_atomic(path):
    """Yield a binary file: a temporary file in the same directory, which
    is ``os.replace``d over ``path`` when the block ends and removed if it
    fails, so a failed or killed writer leaves the old file as it was.
    Not fsynced: a power loss can still lose it.  A device or pipe
    (``/dev/null``, ``/dev/stdout``) is written in place."""
    head, tail = os.path.split(path)
    in_place = os.path.exists(path) and not os.path.isfile(path)
    tmp = path if in_place else os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        if not in_place:
            os.replace(tmp, path)
    except BaseException:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def pack_header(magic, header, *fields):
    """The magic, the version, then ``fields`` packed by ``header``."""
    return magic + _VERSION_FIELD.pack(VERSION) + header.pack(*fields)


def read_exact(f, n, what):
    """``n`` bytes from ``f``, or ``FormatError`` naming ``what``; never asks
    for more than the file holds, so a corrupt size cannot allocate much."""
    data = f.read(min(n, os.fstat(f.fileno()).st_size - f.tell()))
    if len(data) != n:
        raise FormatError(
            f"truncated file while reading {what}: wanted {n} bytes at offset "
            f"{f.tell() - len(data)}, got {len(data)}"
        )
    return data


def read_header(f, magic, header):
    """Check the magic and the version; return the fields of ``header``."""
    found = read_exact(f, 4, "magic")
    if found != magic:
        raise FormatError(f"bad magic {found!r} at offset 0 (expected {magic!r})")
    (version,) = _VERSION_FIELD.unpack(read_exact(f, _VERSION_FIELD.size, "version"))
    if version != VERSION:
        raise FormatError(f"unsupported {magic.decode()} version {version}")
    return header.unpack(read_exact(f, header.size, "header"))


def read_body(f, count, record_size):
    """The rest of the file as ``count`` records of ``record_size`` bytes;
    a short file names its first incomplete record."""
    body_size = count * record_size
    remaining = os.fstat(f.fileno()).st_size - f.tell()
    if remaining < body_size:
        raise FormatError(
            f"record {remaining // record_size}: truncated file: it claims "
            f"{count} records of {record_size} bytes, {remaining} bytes follow"
        )
    if remaining > body_size:
        raise FormatError(f"unexpected trailing bytes at offset {f.tell() + body_size}")
    return read_exact(f, body_size, "records")
