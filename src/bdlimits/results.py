"""The results file: config hashes and JSON-lines records deduplicated by them.

Every command hashes its configuration with :func:`config_hash`, and
``--out`` appends the record with :func:`append_result`, which writes
nothing when the file already holds a record of that hash. The module
imports no numpy, so a command that needs none, such as ``bounds-table``,
writes its record without loading it.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os

from .errors import ParameterError

#: bytes the results-file scan reads at a time, before it completes the last line
_SCAN_BLOCK = 1 << 16


def config_hash(config: dict) -> str:
    """Stable 16-hex-digit digest of a JSON-serializable configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def append_result(path: str, record: dict) -> bool:
    """Append a record to a JSON-lines results file, deduplicating by config hash.

    Returns False, and writes nothing, when a line of the file parses as a
    JSON object whose ``config_hash`` equals the record's. Corrupt lines
    (invalid UTF-8, invalid JSON, or JSON that is not an object) are skipped.
    A record without a ``config_hash``, or with None, is appended without
    the check; any other non-string hash raises ParameterError.

    The file is read once, from its end, in blocks of 64 KiB that each
    start on a line boundary, so a recent duplicate is found in the last
    block. A block that holds no whole line is read again at twice the
    size. Lines end at ``b"\\n"`` only. A block that holds neither the
    hash's UTF-8 bytes nor a backslash is skipped. In any other, each line
    that holds either is parsed once, from the last line back: a line
    without a backslash holds no escapes, so its ``config_hash`` can equal
    the hash only by spelling it literally. The scan holds at most two
    blocks (the next one is read before the last is let go) and one parsed
    line, or, around a line longer than a block, a few times that line.
    The check and the write happen under one exclusive
    ``fcntl.flock`` on the file, so concurrent writers are serialized; the
    lock is POSIX advisory and binds only writers that take it. A partial
    last line (a writer killed mid-record) is closed with a newline before
    the record is written, so the record stays on its own line.
    """
    digest = record.get("config_hash")
    if digest is not None and not isinstance(digest, str):
        raise ParameterError(f"config_hash must be a string, not {type(digest).__name__}")
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh is closed
        if digest is not None and _holds_digest(fh, digest):
            return False
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
        fh.write((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
    return True


def _holds_digest(fh, digest: str) -> bool:
    """Whether a line of the binary file ``fh`` is a JSON object with this
    config hash. The file is read from its end in blocks that start on a
    line boundary. The lines of a block that hold the hash or a
    backslash are walked from the last one back, each parsed once; a line
    is found from the later of the last hash and the last backslash not yet
    walked past, so no other line is split off."""
    # surrogatepass: a lone surrogate is never valid UTF-8, so it can only
    # appear escaped, and the backslash search finds that line. No line
    # holds b"\n", so a hash with one is found by the backslash search alone.
    # A line that holds the empty hash unescaped holds b'""'; a nonempty
    # needle lets a search that ends at a line's start find only what
    # starts before it
    needle = digest.encode("utf-8", "surrogatepass") or b'""'
    if b"\n" in needle:
        needle = b"\\"
    fd = fh.fileno()
    end = os.fstat(fd).st_size
    size = _SCAN_BLOCK
    while end:
        start = max(end - size, 0)
        block = os.pread(fd, end - start, start)
        # the partial first line is left to the next, earlier read; a block
        # ends with b"\n" or at the end of the file, so a newline before its
        # last byte is the first one that ends a whole line
        first = block.find(b"\n", 0, len(block) - 1) + 1 if start else 0
        if start and not first:
            size *= 2  # no whole line: read again at twice the size
            continue
        # the last hash and the last backslash not yet walked past; each is
        # searched for again only once the walk has passed it
        hit = block.rfind(needle, first)
        slash = block.rfind(b"\\", first)
        while hit >= 0 or slash >= 0:
            # the line around the later one; block[first - 1] is b"\n"
            at = max(hit, slash)
            line_start = block.rfind(b"\n", 0, at) + 1
            line_end = block.find(b"\n", at)
            raw = block[line_start : line_end if line_end >= 0 else None]
            try:
                existing = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError):
                existing = None
            if isinstance(existing, dict) and existing.get("config_hash") == digest:
                return True
            if hit >= line_start:
                hit = block.rfind(needle, first, line_start)
            if slash >= line_start:
                slash = block.rfind(b"\\", first, line_start)
        end, size = start + first, _SCAN_BLOCK
    return False
