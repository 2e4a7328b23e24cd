"""The restricted-growth-string stream of set partitions, for the
brute-force oracles of the tests.  The package streams partitions as
class masks inside `calibrated_set`; this stream follows the definition
and shares only the package's partition ceiling."""

from dataclasses import dataclass
from typing import Iterator

from mcalaudit.enumeration import _check_ceiling


@dataclass(frozen=True)
class SetPartition:
    """A partition of {0..k-1} into disjoint non-empty classes.

    Classes are stored sorted by smallest element, which is the canonical
    order produced by the restricted-growth-string enumeration.
    """

    classes: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return sum(len(c) for c in self.classes)


def partitions(k: int) -> Iterator[SetPartition]:
    """Yield every set partition of {0..k-1} exactly once.

    Enumerates restricted growth strings: position i gets a class label in
    {0..max(labels[:i])+1}.  Canonical order, Bell(k) partitions in total.
    Refuses k > PARTITION_CEILING, and k < 1.
    """
    _check_ceiling(k)
    labels = [0] * k

    def emit() -> SetPartition:
        nclasses = max(labels) + 1
        classes: list[list[int]] = [[] for _ in range(nclasses)]
        for i, c in enumerate(labels):
            classes[c].append(i)
        return SetPartition(tuple(tuple(c) for c in classes))

    def rec(i: int, top: int):
        if i == k:
            yield emit()
            return
        for c in range(top + 2):
            labels[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(1, 0) if k > 1 else iter([emit()])
