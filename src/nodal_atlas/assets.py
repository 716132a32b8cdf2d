"""The JSON data assets: where they live and how their rows are loaded.

The environment variable NODAL_ATLAS_DATA overrides the directory.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

_DIGITS = re.compile(r"-?[0-9]+")


def data_dir():
    override = os.environ.get("NODAL_ATLAS_DATA")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def integer(cell):
    """A JSON integer, or a string of ASCII digits after an optional minus
    sign, as an int.  int() would truncate a float, read a boolean as 0 or 1
    and read '1_000', ' 7 ' or a non-ASCII digit, so all of these are refused."""
    if type(cell) is int or isinstance(cell, str) and _DIGITS.fullmatch(cell):
        return int(cell)
    raise ValueError(f"cell {cell!r} is not an integer")


def load_rows(name, keys, parse_row, count=None):
    """parse_row(position, row) for each row of the JSON list in asset
    `name`, positions from 1.  Every row needs the given keys, and there
    must be at least `count` rows, if given.

    Unreadable or malformed data raises ValueError naming the file, and the
    row when one row is at fault.
    """
    path = data_dir() / name
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a list of rows")
    rows = []
    for position, row in enumerate(raw, start=1):
        try:
            missing = [key for key in keys if key not in row]
            if missing:
                raise ValueError(f"missing keys {missing}")
            rows.append(parse_row(position, row))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: row {position}: {exc}") from None
    if count is not None and len(rows) < count:
        raise ValueError(
            f"{path}: row {len(rows) + 1}: missing; rows must run contiguously from 1 to {count}"
        )
    return rows
