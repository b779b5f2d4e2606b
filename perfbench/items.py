"""The unit of work every workload is made of."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


class CheckError(Exception):
    """An item returned a wrong answer."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Item:
    """``compute(fns)`` is timed and returns the output; ``check(output)``
    runs untimed and raises :class:`CheckError` when the output is wrong.
    ``props`` holds input properties for the computed work counts."""

    kind: str
    compute: Callable
    check: Callable
    props: dict = field(default_factory=dict)
