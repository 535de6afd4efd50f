import pytest

import spotground.checkpoint
import spotground.cli
import spotground.grounding
import spotground.nn
import spotground.spotting
from spotground.spotting import SpotPrediction

from perfbench import layers
from perfbench.spans import Span, Tracer, self_times


def test_self_time_subtracts_the_children_of_each_span():
    spans = [
        Span(0, None, "root", 0.0, 10.0, "r"),
        Span(1, 0, "a", 1.0, 4.0, "r"),
        Span(2, 1, "a1", 2.0, 3.0, "r"),
        Span(3, 0, "b", 5.0, 6.0, "r"),
        Span(4, 0, "c", 8.0, 9.5, "r"),
        Span(5, None, "other", 10.0, 11.0, "r"),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.0 - 1.5)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(1.0)
    assert st[5] == pytest.approx(1.0)


def test_step_times_come_from_adam_span_ends_inside_training():
    spans = [Span(0, None, "cli.cmd_spot_train", 0.0, 1.0, "r")]
    for i, end in enumerate((0.1, 0.3, 0.6)):
        spans.append(Span(i + 1, 0, "nn.adam_step", end - 0.01, end, "r"))
    spans.append(Span(9, None, "nn.adam_step", 1.5, 2.0, "r"))  # outside training
    assert layers.step_times_ms(spans) == pytest.approx([200.0, 300.0])


def test_tracer_wraps_every_binding_and_restores_it():
    original = spotground.nn.encoder_backward
    with Tracer() as tracer:
        assert spotground.spotting.encoder_backward is spotground.grounding.encoder_backward
        assert spotground.spotting.encoder_backward is not original
        assert spotground.cli.load_model is spotground.checkpoint.load_model
        assert spotground.cli.load_model.__wrapped__ is not None
        tracer.run = "x"
        preds = [SpotPrediction("g", 1, t, 0, "Penalty", c) for t, c in ((5, 0.9), (9, 0.5))]
        kept = spotground.spotting.nms_1d(preds, 10)
    assert kept == [preds[0]]
    assert spotground.nn.encoder_backward is original
    assert spotground.spotting.encoder_backward is original
    names = [s.name for s in tracer.spans]
    assert names == ["spotting.nms_1d"]
    assert tracer.spans[0].run == "x" and tracer.spans[0].parent is None


def test_nested_calls_record_parents_and_counts():
    tracer = Tracer(layers.COUNTERS)
    preds = [SpotPrediction("g", 1, t, 0, "Penalty", 0.5) for t in (1, 50, 100)]
    import numpy as np

    probs = np.zeros((120, 18))
    for p in preds:
        probs[p.time_s, 0] = p.confidence
    with tracer:
        spotground.spotting.select_predictions(probs, "g", 1, ["Penalty"], 0.2, 20)
    by_name = {s.name: s for s in tracer.spans}
    sel, nms = by_name["spotting.select_predictions"], by_name["spotting.nms_1d"]
    assert nms.parent == sel.sid
    assert sel.counts == {"candidates": 3}
    assert nms.counts == {"in": 3, "out": 3}
