"""Label conventions for the square-tower family.

Vertices are "ijk" strings: a two-character row code followed by a column
index.  The plus-side grid uses rows 00 < 01 < 11 with the product order;
the minus side lives in the three-block join whose middle row is reversed,
with rows 00, 10, 11.
"""

from __future__ import annotations

PLUS_ROWS = ("00", "01", "11")


def vlabel(row: str, col: int) -> str:
    return f"{row}{col}"


def vrow(label: str) -> str:
    return label[:2]


def vcol(label: str) -> int:
    return int(label[2:])
