"""DEX (Dalvik executable) method-reference extraction.

A .dex file carries flat identifier tables in its header: string_ids
(offsets to length-prefixed MUTF-8 data), type_ids (indices into strings)
and method_ids (class type index, prototype index, name string index).
Every method an app calls or defines appears in method_ids, so reading
that one table gives the full API-reference surface without touching
bytecode. References are rendered "<class-descriptor>-><method-name>",
e.g. "Landroid/telephony/SmsManager;->sendTextMessage".

The tables are read as numpy arrays, and each distinct type descriptor
and method name is decoded once, however many rows share it. All offsets
and sizes are bounds-checked against the payload before use; violations
raise MalformedDex, for the first bad method_ids row in table order (its
class type before its name).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import MalformedDex

_MAGIC = b"dex\n"
_HEADER_SIZE = 0x70
_METHOD_ID = np.dtype([("class_idx", "<u2"), ("proto_idx", "<u2"), ("name_idx", "<u4")])

# why a string id cannot be read, by error code; code 0 means it can
_STRING_ERRORS = (
    None,
    "string index {} out of range",
    "string {} data offset out of bounds",
    "uleb128 runs past end of payload",
    "uleb128 longer than 5 bytes",
    "string {} unterminated",
)


class _Dex:
    def __init__(self, payload: bytes):
        self.data = payload
        if len(payload) < _HEADER_SIZE:
            raise MalformedDex("payload shorter than the header")
        if payload[:4] != _MAGIC or payload[7:8] != b"\x00":
            raise MalformedDex("bad magic")
        (
            self.string_ids_size,
            self.string_ids_off,
            self.type_ids_size,
            self.type_ids_off,
        ) = struct.unpack_from("<IIII", payload, 56)
        self.method_ids_size, self.method_ids_off = struct.unpack_from("<II", payload, 88)
        self.string_ids = self._table(
            "string_ids", self.string_ids_off, self.string_ids_size, "<u4"
        )
        self.type_ids = self._table(
            "type_ids", self.type_ids_off, self.type_ids_size, "<u4"
        )
        self.method_ids = self._table(
            "method_ids", self.method_ids_off, self.method_ids_size, _METHOD_ID
        )

    def _table(self, name: str, off: int, size: int, dtype) -> np.ndarray:
        if not size:
            return np.zeros(0, dtype)
        if off + size * np.dtype(dtype).itemsize > len(self.data):
            raise MalformedDex(f"{name} table out of bounds")
        return np.frombuffer(self.data, dtype, size, off)

    def strings(self, ids: np.ndarray) -> tuple[list[str], np.ndarray]:
        """Decode the string ids `ids`. Returns the strings and an error
        code per id (an index into _STRING_ERRORS); a string whose code is
        not 0 is a placeholder."""
        size = len(self.data)
        error = np.where(ids < self.string_ids_size, 0, 1)
        pos = np.zeros(len(ids), np.int64)
        pos[error == 0] = self.string_ids[ids[error == 0]]
        error[(error == 0) & (pos >= size)] = 2
        # skip the uleb128 length: at most 5 bytes, the last without bit 7
        raw = np.frombuffer(self.data, np.uint8)
        live = error == 0
        for _ in range(5):
            past = live & (pos >= size)
            error[past] = 3
            live &= ~past
            byte = raw[np.minimum(pos, size - 1)]
            pos += live
            live &= (byte & 0x80) != 0
        error[live] = 4
        # the first NUL at or after each start; a sentinel at the end of
        # the payload stands for none
        lo = int(pos.min(initial=size))
        nulls = np.append(np.flatnonzero(raw[lo:] == 0) + lo, size)
        end = nulls[np.searchsorted(nulls, np.minimum(pos, size))]
        error[(error == 0) & (end == size)] = 5
        # MUTF-8: plain UTF-8 for everything we care about; surrogate byte
        # sequences from supplementary characters decode to replacement chars
        data = self.data
        values = [
            data[s:e].decode("utf-8", "replace")
            for s, e in zip(pos.tolist(), end.tolist())
        ]
        return values, error

    def method_refs(self) -> tuple[str, ...]:
        table = self.method_ids
        classes, row_class = np.unique(table["class_idx"], return_inverse=True)
        class_ok = classes < self.type_ids_size
        descs = np.zeros(len(classes), np.int64)
        descs[class_ok] = self.type_ids[classes[class_ok]]
        ids, where = np.unique(
            np.concatenate([descs, table["name_idx"]]), return_inverse=True
        )
        values, error = self.strings(ids)
        class_string, row_string = where[: len(classes)], where[len(classes):]
        if not class_ok.all() or error.any():
            self._raise_first_error(
                table, row_class, class_ok, error[class_string], error[row_string]
            )
        # one ref per row, concatenated by numpy over object arrays
        prefixes = np.array([values[k] + "->" for k in class_string.tolist()], object)
        refs = prefixes[row_class] + np.array(values, object)[row_string]
        return tuple(dict.fromkeys(refs.tolist()))

    def _raise_first_error(self, table, row_class, class_ok, class_error, name_error):
        type_bad = ~class_ok[row_class]
        desc_error = np.where(type_bad, 0, class_error[row_class])
        row = int(np.argmax(type_bad | (desc_error != 0) | (name_error != 0)))
        if type_bad[row]:
            raise MalformedDex(f"type index {table['class_idx'][row]} out of range")
        if desc_error[row]:
            code, idx = desc_error[row], self.type_ids[table["class_idx"][row]]
        else:
            code, idx = name_error[row], table["name_idx"][row]
        raise MalformedDex(_STRING_ERRORS[code].format(idx))


def parse_dex(payload: bytes) -> tuple[str, ...]:
    """Every method reference of one DEX payload, in method-table order,
    each once."""
    return _Dex(payload).method_refs()
