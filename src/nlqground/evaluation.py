"""The "R@n, IoU@m" retrieval metric.

A query is a hit for cell (n, m) when at least one of its top-n ranked
predictions has IoU strictly greater than m with the ground truth; each cell
reports the fraction of queries that hit.  Boundary IoU == m counts as a
miss (strict inequality).  The running maximum of a query's IoUs over ranks
is its best IoU within the top n, for every n at once.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .core import iou_batch
from .data import QueryAnnotation
from .inference import _checked_proposal

DEFAULT_RANKS = (1, 5)
DEFAULT_THRESHOLDS = (0.3, 0.5)


@dataclass(frozen=True)
class MetricReport:
    recalls: dict[tuple[int, float], float]  # (n, m) -> hits / total
    hits: dict[tuple[int, float], int]
    total_queries: int
    ranks: tuple[int, ...]
    thresholds: tuple[float, ...]

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
    predictions: list[dict],
    annotations: list[QueryAnnotation],
    ranks=DEFAULT_RANKS,
    thresholds=DEFAULT_THRESHOLDS,
    strict: bool = False,
) -> MetricReport:
    """Score a predictions list (as parsed from the JSONL file) against
    annotations.

    Every annotated query must appear in the predictions; missing queries
    count as misses with a warning unless `strict`, in which case they are
    an error.  Duplicate query ids in the predictions are always an error,
    and so is a malformed proposal, named by query, rank and key, exactly as
    `rerank` names it.  Ranks must be >= 1 and thresholds lie in (0, 1).
    """
    ranks = tuple(int(n) for n in ranks)
    thresholds = tuple(float(m) for m in thresholds)
    if min(ranks, default=1) < 1 or not all(0.0 < m < 1.0 for m in thresholds):
        raise ValueError(f"ranks must be >= 1 and IoU thresholds in (0, 1), got {ranks}, {thresholds}")
    by_query: dict[str, list] = {}
    for rec in predictions:
        qid = rec["query_id"]
        if qid in by_query:
            raise ValueError(f"duplicate query_id {qid!r} in predictions")
        by_query[qid] = [_checked_proposal(qid, rank, p)[:2]
                         for rank, p in enumerate(rec["proposals"], 1)]

    rows, gts = [], []  # proposal spans and ground truth of each predicted query
    for a in annotations:
        if a.query_id in by_query:
            rows.append(by_query[a.query_id])
            gts.append((a.start_sec, a.end_sec))
        elif strict:
            raise ValueError(f"no predictions for query {a.query_id!r} (strict mode)")
        else:
            warnings.warn(f"no predictions for query {a.query_id!r}; counted as a miss")

    # rows padded with [0, 0] spans, whose IoU of 0 is never a hit, to one grid
    width = max(map(len, rows), default=0)
    hit_counts = np.zeros((len(ranks), len(thresholds)), dtype=np.int64)
    if width:
        padded = [spans + [[0.0, 0.0]] * (width - len(spans)) for spans in rows]
        ious = iou_batch(padded, np.array(gts, dtype=np.float64)[:, None, :])
        best = np.maximum.accumulate(ious, axis=1)[:, [min(n, width) - 1 for n in ranks]]
        hit_counts = (best[:, :, None] > np.asarray(thresholds)).sum(axis=0)

    total = len(annotations)
    hits = {(n, m): int(hit_counts[i, j])
            for i, n in enumerate(ranks) for j, m in enumerate(thresholds)}
    recalls = {cell: (h / total if total else 0.0) for cell, h in hits.items()}
    return MetricReport(recalls=recalls, hits=hits, total_queries=total,
                        ranks=ranks, thresholds=thresholds)


def report_to_json(report: MetricReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2)
