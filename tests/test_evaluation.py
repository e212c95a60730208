import math

import numpy as np
import pytest

from nlqground.data import QueryAnnotation
from nlqground.evaluation import evaluate
from helpers import scalar_iou


def pred(qid, spans, vid="v"):
    """A prediction record of ranked (start, end) spans."""
    return (qid, vid, np.array(spans, dtype=np.float64).reshape(-1, 2),
            1.0 - 0.1 * np.arange(len(spans)))


def query_hit(spans, gt, n, m):
    """Whether one query with these ranked spans is a hit for cell (n, m)."""
    report = evaluate([pred("q", spans)], [QueryAnnotation("v", "q", "", *gt)],
                      ranks=(n,), thresholds=(m,))
    return report.recalls[(n, m)] == 1.0


class TestQueryHit:
    def test_rank_one_exact(self):
        assert query_hit([(0, 5)], (0, 5), n=1, m=0.9)

    def test_all_misses(self):
        spans = [(10 * i + 20, 10 * i + 25) for i in range(5)]
        assert not query_hit(spans, (0, 5), n=5, m=0.3)

    def test_rank_three_hit_counts_for_n5_not_n1(self):
        # gt [0,5]; rank-1 IoU 0, rank-3 [1,7]: intersection 4, union 7
        spans = [(6, 10), (20, 30), (1, 7)]
        assert scalar_iou(spans[2], (0, 5)) == pytest.approx(4 / 7)
        assert not query_hit(spans, (0, 5), n=1, m=0.5)
        assert query_hit(spans, (0, 5), n=5, m=0.5)

    def test_strictly_greater(self):
        # IoU exactly m is a miss: [0,5] against gt [0,10] is 0.5
        assert not query_hit([(0, 5)], (0, 10), n=1, m=0.5)
        assert query_hit([(0, 5)], (0, 10), n=1, m=0.49)

    def test_empty_list_is_miss(self):
        assert not query_hit([], (0, 5), n=5, m=0.3)

    def test_fewer_than_n_proposals(self):
        # two proposals, the hit at rank 2, scored at n = 1, 2 and 10
        spans = [(20, 30), (0, 5)]
        assert not query_hit(spans, (0, 5), n=1, m=0.5)
        assert query_hit(spans, (0, 5), n=2, m=0.5)
        assert query_hit(spans, (0, 5), n=10, m=0.5)


class TestEvaluate:
    anns = [QueryAnnotation("v", "A", "", 0.0, 10.0),
            QueryAnnotation("v", "B", "", 0.0, 5.0)]

    def test_composed_hand_example(self):
        predictions = [
            pred("A", [(0.5, 9.5)]),                       # rank-1 IoU 9/10
            pred("B", [(6, 10), (20, 30), (1, 7)]),        # hit only at rank 3
        ]
        report = evaluate(predictions, self.anns)
        assert report.recalls[(1, 0.5)] == 0.5
        assert report.recalls[(5, 0.5)] == 1.0

    def test_perfect_predictions(self):
        predictions = [pred("A", [(0.0, 10.0)]), pred("B", [(0.0, 5.0)])]
        report = evaluate(predictions, self.anns)
        assert all(v == 1.0 for v in report.recalls.values())

    def test_empty_predictions_all_zero_with_warning(self):
        with pytest.warns(UserWarning):
            report = evaluate([], self.anns)
        assert all(v == 0.0 for v in report.recalls.values())

    def test_strict_mode_errors_on_missing(self):
        with pytest.raises(ValueError, match="B"):
            evaluate([pred("A", [(0, 10)])], self.anns, strict=True)

    def test_duplicate_query_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            evaluate([pred("A", [(0, 10)]), pred("A", [(0, 10)])], self.anns)

    def test_annotation_order_irrelevant(self):
        predictions = [pred("A", [(0, 10)]), pred("B", [(7, 9)])]
        a = evaluate(predictions, self.anns)
        b = evaluate(predictions, list(reversed(self.anns)))
        assert a.recalls == b.recalls

    def test_short_and_empty_lists_padded_beside_longer_ones(self):
        predictions = [pred("A", [(20, 30), (40, 50), (60, 70), (0.0, 10.0)]), pred("B", [])]
        report = evaluate(predictions, self.anns, ranks=(1, 3, 4, 10))
        assert [report.recalls[(n, 0.5)] for n in (1, 3, 4, 10)] == [0.0, 0.0, 0.5, 0.5]

    def test_repeated_rank_counts_once(self):
        predictions = [pred("A", [(0.0, 10.0)]), pred("B", [(0.0, 5.0)])]
        report = evaluate(predictions, self.anns, ranks=(1, 1), thresholds=(0.5, 0.5))
        assert report.recalls == {(1, 0.5): 1.0}

    @pytest.mark.parametrize("kwargs", [{"ranks": (1, 0)}, {"thresholds": (0.5, 1.0)},
                                        {"thresholds": (0.0,)}])
    def test_bad_ranks_or_thresholds_rejected_up_front(self, kwargs):
        with pytest.raises(ValueError, match="ranks|thresholds"):
            evaluate([], self.anns, **kwargs)

    def test_recall_is_exact_ratio(self):
        predictions = [pred("A", [(0, 10)]), pred("B", [(20, 30)])]
        report = evaluate(predictions, self.anns)
        assert report.recalls[(1, 0.3)] == 1 / report.total_queries  # A hits, B misses

    def test_json_and_table_output(self):
        predictions = [pred("A", [(0, 10)]), pred("B", [(0, 5)])]
        report = evaluate(predictions, self.anns)
        d = report.to_json_dict()
        assert d["cells"]["R@1,IoU=0.3"] == 1.0
        assert d["total_queries"] == 2
        table = report.to_table()
        assert "R@1" in table and "IoU=0.3" in table


class TestOracleEquivalence:
    def _random_instance(self, rng):
        n_queries = int(rng.integers(1, 8))
        anns, predictions = [], []
        for q in range(n_queries):
            dur = 100.0
            s = rng.uniform(0, 90)
            anns.append(QueryAnnotation("v", f"q{q}", "", s, s + rng.uniform(1, 10)))
            spans = []
            for _ in range(int(rng.integers(0, 6))):
                a = rng.uniform(0, 95)
                spans.append((a, a + rng.uniform(0.5, 10)))
            predictions.append(pred(f"q{q}", spans))
        return anns, predictions

    def test_matches_brute_force_double_loop(self):
        """Every cell, over all queries and over the ceil(N / 3) with the
        shortest ground truths."""
        rng = np.random.default_rng(0)
        ranks, ths = (1, 5), (0.3, 0.5)
        for _ in range(100):
            anns, predictions = self._random_instance(rng)
            report = evaluate(predictions, anns, ranks=ranks, thresholds=ths)
            by_qid = {qid: spans.tolist() for qid, _, spans, _ in predictions}
            by_length = sorted(anns, key=lambda a: a.end_sec - a.start_sec)
            shortest = by_length[:math.ceil(len(anns) / 3)]
            for n in ranks:
                for m in ths:
                    hit = {}
                    for a in anns:
                        gt = (a.start_sec, a.end_sec)
                        found = False
                        for span in by_qid[a.query_id][:n]:
                            if scalar_iou(span, gt) > m:
                                found = True
                        hit[a.query_id] = found
                    assert report.recalls[(n, m)] == sum(hit.values()) / len(anns)
                    assert report.shortest_third[(n, m)] == (
                        sum(hit[a.query_id] for a in shortest) / len(shortest))

    def test_shortest_third_counts_a_missing_query_as_a_miss(self):
        anns = [QueryAnnotation("v", q, "", 0.0, length)
                for q, length in (("a", 9.0), ("b", 1.0), ("c", 2.0), ("d", 8.0))]
        predictions = [pred("a", [(0.0, 9.0)]), pred("c", [(0.0, 2.0)]), pred("d", [(50, 60)])]
        with pytest.warns(UserWarning, match="'b'"):
            report = evaluate(predictions, anns)
        # the shortest third of four is b and c; b has no predictions
        assert report.shortest_third[(1, 0.5)] == 0.5
        assert report.recalls[(1, 0.5)] == 0.5

    def test_monotonicity_in_n_and_m(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            anns, predictions = self._random_instance(rng)
            r = evaluate(predictions, anns)
            assert r.recalls[(5, 0.3)] >= r.recalls[(1, 0.3)]
            assert r.recalls[(5, 0.5)] >= r.recalls[(1, 0.5)]
            assert r.recalls[(1, 0.3)] >= r.recalls[(1, 0.5)]
            assert r.recalls[(5, 0.3)] >= r.recalls[(5, 0.5)]
