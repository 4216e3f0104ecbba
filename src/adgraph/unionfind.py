"""Disjoint-set forest over arbitrary hashable keys."""

from __future__ import annotations

from typing import Hashable, Iterable


class UnionFind:
    """Union by rank with path compression."""

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._parent: dict = {}
        self._rank: dict = {}
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, item: Hashable):
        parent = self._parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets holding a and b; returns True if they were separate."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True

    def groups(self) -> dict:
        """Map each root to the sorted list of its members."""
        out: dict = {}
        for item in self._parent:
            out.setdefault(self.find(item), []).append(item)
        for members in out.values():
            members.sort()
        return out
