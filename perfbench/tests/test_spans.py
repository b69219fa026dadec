"""Span recording, self-time arithmetic and the layer-coverage guard."""

import pytest

from perfbench import spans


def row(name, start, end, parent=-1, request=None):
    return [name, start, end, parent, request]


class TestSelfTime:
    def test_nested_spans(self):
        rows = [
            row("a", 0.0, 10.0),
            row("b", 1.0, 4.0, parent=0),
            row("d", 2.0, 3.0, parent=1),
            row("c", 5.0, 6.0, parent=0),
        ]
        assert spans.self_times(rows) == pytest.approx([8.0 - 2.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_are_covered_once(self):
        rows = [row("a", 0.0, 10.0), row("b", 1.0, 5.0, 0), row("c", 3.0, 7.0, 0)]
        assert spans.self_times(rows)[0] == pytest.approx(4.0)

    def test_inclusive_time_counts_the_outermost_span_of_a_name(self):
        rows = [row("x", 0.0, 10.0), row("y", 1.0, 8.0, 0), row("x", 2.0, 5.0, 1)]
        totals = spans.layer_totals(rows)
        assert totals["x"] == pytest.approx({"calls": 2, "s": 10.0, "self_s": 3.0 + 3.0})
        assert totals["y"] == pytest.approx({"calls": 1, "s": 7.0, "self_s": 4.0})

    def test_requests_only_skips_spans_outside_requests(self):
        rows = [row("warm", 0.0, 1.0), row("h", 2.0, 5.0, request=4),
                row("d", 3.0, 4.0, 1, request=4)]
        totals = spans.layer_totals(rows, requests_only=True)
        assert sorted(totals) == ["d", "h"]
        assert totals["h"]["self_s"] == pytest.approx(2.0)


class Dummy:
    def outer(self, request):
        return self.inner() + 1

    def inner(self):
        return 1


class TestRecorder:
    def test_parent_and_request_id(self):
        recorder = spans.SpanRecorder()
        dummy = Dummy()
        inner = recorder.wrap("inner", Dummy.inner)
        outer = recorder.wrap("outer", Dummy.outer, request_of=lambda self, req: req["id"])
        dummy.inner = lambda: inner(dummy)
        assert outer(dummy, {"id": 7}) == 2
        rows = recorder.rows()
        assert [r[0] for r in rows] == ["outer", "inner"]
        assert rows[0][3] == -1 and rows[1][3] == 0
        assert rows[0][4] == rows[1][4] == 7
        assert rows[0][1] <= rows[1][1] <= rows[1][2] <= rows[0][2]

    def test_install_patches_the_defining_class(self):
        class Child(Dummy):
            pass

        target = spans.Target("dummy.inner", __name__, "Dummy.inner", ())
        recorder = spans.SpanRecorder()
        original = Dummy.inner
        try:
            recorder.install([target])
            assert Child().outer(None) == 2
            assert [r[0] for r in recorder.rows()] == ["dummy.inner"]
        finally:
            Dummy.inner = original

    def test_inherited_or_missing_entry_points_are_rejected(self):
        with pytest.raises(AttributeError):
            spans.resolve(spans.Target("t", "collections", "OrderedDict.no_such_method", ()))

    def test_every_target_resolves_in_the_source_tree(self):
        for target in spans.TARGETS:
            owner, attribute, original = spans.resolve(target)
            assert callable(original), target.attribute


def test_coverage_guard_names_uncalled_entry_points():
    totals = {"serve.handle": {"calls": 3}, "store.query": {"calls": 0}}
    missing = spans.missing_coverage("serve-mixed", totals)
    assert "store.query" in missing and "forwarding.deliver" in missing
    assert "serve.handle" not in missing
    assert "graph.sssp_repair_content" in spans.missing_coverage("fig2-multi", {})
