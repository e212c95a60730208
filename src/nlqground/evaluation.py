"""The "R@n, IoU@m" retrieval metric.

A query is a hit for cell (n, m) when at least one of its top-n ranked
predictions has IoU strictly greater than m with the ground truth; each cell
reports the fraction of queries that hit.  Boundary IoU == m counts as a
miss (strict inequality).  The running maximum of a query's IoUs over ranks
is its best IoU within the top n, for every n at once.  Predictions are
`inference.Record`s, whose proposals the reader has already checked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import iou_batch
from .data import QueryAnnotation

DEFAULT_RANKS = (1, 5)
DEFAULT_THRESHOLDS = (0.3, 0.5)


@dataclass(frozen=True)
class MetricReport:
    recalls: dict[tuple[int, float], float]  # (n, m) -> hits / total
    total_queries: int
    ranks: tuple[int, ...]
    thresholds: tuple[float, ...]
    shortest_third: dict[tuple[int, float], float]  # over the ceil(N / 3) shortest truths

    def cell_name(self, n: int, m: float) -> str:
        return f"R@{n},IoU={m:g}"

    def to_json_dict(self) -> dict:
        return {
            "cells": {self.cell_name(n, m): self.recalls[(n, m)]
                      for n in self.ranks for m in self.thresholds},
            "total_queries": self.total_queries,
        }

    def to_table(self) -> str:
        """Plain-text table: ranks as rows, IoU thresholds as columns."""
        header = "        " + "  ".join(f"IoU={m:<6g}" for m in self.thresholds)
        lines = [header]
        for n in self.ranks:
            cells = "  ".join(f"{self.recalls[(n, m)]:<10.4f}" for m in self.thresholds)
            lines.append(f"R@{n:<5d} {cells}")
        lines.append(f"queries: {self.total_queries}")
        return "\n".join(lines)


def evaluate(
    records: list[tuple],
    annotations: list[QueryAnnotation],
    ranks=DEFAULT_RANKS,
    thresholds=DEFAULT_THRESHOLDS,
    strict: bool = False,
) -> MetricReport:
    """Score prediction records against annotations.

    Every annotated query must appear in the records; missing queries count
    as misses with a warning unless `strict`, in which case they are an
    error.  Duplicate query ids in the records are always an error.  Ranks
    must be >= 1 and thresholds lie in (0, 1).
    """
    ranks = tuple(int(n) for n in ranks)
    thresholds = tuple(float(m) for m in thresholds)
    if min(ranks, default=1) < 1 or not all(0.0 < m < 1.0 for m in thresholds):
        raise ValueError(f"ranks must be >= 1 and IoU thresholds in (0, 1), got {ranks}, {thresholds}")
    by_query: dict[str, np.ndarray] = {}
    for qid, _, spans, _ in records:
        if qid in by_query:
            raise ValueError(f"duplicate query_id {qid!r} in predictions")
        by_query[qid] = spans

    lengths = [a.end_sec - a.start_sec for a in annotations]
    shortest = set(np.argsort(lengths, kind="stable")[:-(-len(lengths) // 3)].tolist())
    rows, gts, short = [], [], []  # proposal spans and ground truth of each predicted query
    for i, a in enumerate(annotations):
        if a.query_id in by_query:
            rows.append(by_query[a.query_id])
            gts.append((a.start_sec, a.end_sec))
            short.append(i in shortest)
        elif strict:
            raise ValueError(f"no predictions for query {a.query_id!r} (strict mode)")
        else:
            warnings.warn(f"no predictions for query {a.query_id!r}; counted as a miss")

    # rows padded with [0, 0] spans, whose IoU of 0 is never a hit, to one grid
    width = max(map(len, rows), default=0)
    hits = np.zeros((len(rows), len(ranks), len(thresholds)), dtype=bool)
    if width:
        padded = np.zeros((len(rows), width, 2))
        for i, spans in enumerate(rows):
            padded[i, :len(spans)] = spans
        ious = iou_batch(padded, np.array(gts, dtype=np.float64)[:, None, :])
        best = np.maximum.accumulate(ious, axis=1)[:, [min(n, width) - 1 for n in ranks]]
        hits = best[:, :, None] > np.asarray(thresholds)

    def recalls(hit_counts, total):
        return {(n, m): (int(hit_counts[i, j]) / total if total else 0.0)
                for i, n in enumerate(ranks) for j, m in enumerate(thresholds)}
    return MetricReport(recalls(hits.sum(axis=0), len(annotations)), len(annotations), ranks,
                        thresholds, recalls(hits[np.array(short, dtype=bool)].sum(axis=0), len(shortest)))
