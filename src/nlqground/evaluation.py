"""The "R@n, IoU@m" retrieval metric.

A query is a hit for cell (n, m) when at least one of its top-n ranked
predictions has IoU strictly greater than m with the ground truth; each cell
reports the fraction of queries that hit.  Boundary IoU == m counts as a
miss (strict inequality).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

from .core import TimeSpan, iou
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


def query_hit(proposals: list[TimeSpan], gt: TimeSpan, n: int, m: float) -> bool:
    """True iff one of the first min(n, len) proposals has IoU > m with gt."""
    if not (0.0 < m < 1.0):
        raise ValueError(f"IoU threshold must lie in (0, 1), got {m}")
    return any(iou(span, gt) > m for span in proposals[:n])


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
    and so is a malformed proposal, named by query, rank and key.
    """
    ranks = tuple(int(n) for n in ranks)
    thresholds = tuple(float(m) for m in thresholds)
    by_query: dict[str, list[TimeSpan]] = {}
    for rec in predictions:
        qid = rec["query_id"]
        if qid in by_query:
            raise ValueError(f"duplicate query_id {qid!r} in predictions")
        try:
            by_query[qid] = [TimeSpan(p["start_sec"], p["end_sec"]) for p in rec["proposals"]]
        except (KeyError, TypeError, ValueError):
            # only a bad record pays for the check that names its offender
            for rank, p in enumerate(rec["proposals"], 1):
                _checked_proposal(qid, rank, p)
            raise

    hits = {(n, m): 0 for n in ranks for m in thresholds}
    for a in annotations:
        spans = by_query.get(a.query_id)
        if spans is None:
            if strict:
                raise ValueError(f"no predictions for query {a.query_id!r} (strict mode)")
            warnings.warn(f"no predictions for query {a.query_id!r}; counted as a miss")
            continue
        gt = TimeSpan(a.start_sec, a.end_sec)
        for n in ranks:
            for m in thresholds:
                if query_hit(spans, gt, n, m):
                    hits[(n, m)] += 1

    total = len(annotations)
    recalls = {cell: (h / total if total else 0.0) for cell, h in hits.items()}
    return MetricReport(recalls=recalls, hits=hits, total_queries=total,
                        ranks=ranks, thresholds=thresholds)


def report_to_json(report: MetricReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2)
