"""Hybrid direct/pivot routing from validation scores.

A direction keeps direct decoding when its validation BLEU is at least the
pivot score (ties go direct: one decoding pass instead of two). Directions
into or out of the pivot language are always direct. Tables are built on a
validation split and applied unchanged to test data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import Direction, check_lang_code, finite_float, read_table, write_table
from .errors import MTForgeError
from .evaluation import ScoreMatrix, decode
from .translator import Direct, PivotVia, Strategy, Translator


@dataclass(frozen=True)
class RouteEntry:
    strategy: Strategy
    bleu_direct: float
    bleu_pivot: float


@dataclass
class RoutingTable:
    entries: dict[Direction, RouteEntry]
    pivot_lang: str

    def strategy(self, direction: Direction) -> Strategy:
        """``direction``'s strategy; MTForgeError if it has no entry."""
        entry = self.entries.get(direction)
        if entry is None:
            raise MTForgeError(f"no routing entry for {direction}")
        return entry.strategy

    def save(self, path: str | Path) -> None:
        write_table(path, (
            (d.src, d.tgt, "pivot" if isinstance(e.strategy, PivotVia) else "direct",
             self.pivot_lang, f"{e.bleu_direct:.6f}", f"{e.bleu_pivot:.6f}")
            for d, e in sorted(self.entries.items())
        ), header="src tgt strategy pivot_lang bleu_direct bleu_pivot".split())

    @classmethod
    def load(cls, path: str | Path) -> "RoutingTable":
        """The pivot language is the first row's (``en`` for an empty table);
        a later row that names another raises TableError at its line."""
        first = None

        def row(src, tgt, kind, pivot_lang, direct_text, pivot_text):
            nonlocal first
            if kind not in ("direct", "pivot"):
                raise ValueError(f"unknown strategy {kind!r}")
            check_lang_code(pivot_lang)
            first = first or pivot_lang
            if pivot_lang != first:
                raise ValueError(f"pivot_lang {pivot_lang} differs from the first row's {first}")
            strategy: Strategy = PivotVia(pivot_lang) if kind == "pivot" else Direct()
            return Direction(src, tgt), RouteEntry(
                strategy, finite_float(direct_text), finite_float(pivot_text))
        return cls(dict(read_table(path, 6, row)), first or "en")


def build_routing_table(
    direct: ScoreMatrix,
    pivot: ScoreMatrix,
    pivot_lang: str = "en",
) -> RoutingTable:
    """Pick the better strategy per direction from two validation matrices.

    A score that is not finite raises MTForgeError: no comparison with NaN
    holds, so a NaN direct score would otherwise route through the pivot.
    A ``pivot_lang`` that is not a language code raises ValueError.
    """
    check_lang_code(pivot_lang)
    if set(direct.scores) != set(pivot.scores):
        raise MTForgeError("direct and pivot matrices cover different direction sets")
    entries: dict[Direction, RouteEntry] = {}
    for direction in sorted(direct.scores):
        d = direct.scores[direction].score
        p = pivot.scores[direction].score
        if not (math.isfinite(d) and math.isfinite(p)):
            raise MTForgeError(
                f"{direction}: scores must be finite, got direct {d} and pivot {p}")
        if pivot_lang in (direction.src, direction.tgt) or d >= p:
            strategy: Strategy = Direct()
        else:
            strategy = PivotVia(pivot_lang)
        entries[direction] = RouteEntry(strategy, d, p)
    return RoutingTable(entries, pivot_lang)


def route_translate(
    translator: Translator,
    table: RoutingTable,
    sentences,
    direction: Direction,
) -> list[str]:
    """Translate by the table's strategy for ``direction`` (``evaluation.decode``)."""
    return decode(translator, sentences, direction, table.strategy(direction))
