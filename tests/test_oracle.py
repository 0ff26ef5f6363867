"""Feature summaries, the statistical oracle, lifecycle abstraction and the LLM transport."""

import http.server
import json
import threading
import time

import numpy as np
import pytest

from ocad.errors import EmptyMatrix, LlmHttpError, LlmSchemaError, LlmTimeout, UnknownObject
from ocad.oracle import (
    abstract_lifecycle,
    llm_oracle,
    statistical_oracle,
    summarize_features,
)

from conftest import build_log, make_matrix
from oracles import brute_quantile


# ---------------------------------------------------------------- summary

def test_summary_interpolated_quantiles():
    s = summarize_features(make_matrix([[1.0], [2.0], [3.0], [4.0]])).stats[0]
    assert s.min == 1.0
    assert s.q1 == pytest.approx(1.75)
    assert s.median == pytest.approx(2.5)
    assert s.q3 == pytest.approx(3.25)
    assert s.max == 4.0


def test_summary_constant_column():
    s = summarize_features(make_matrix([[7.0]] * 5)).stats[0]
    assert s.min == s.q1 == s.median == s.q3 == s.max == s.mean == 7.0
    assert s.stddev == 0.0
    assert s.distinct == 1


def test_summary_mean_and_distinct():
    s = summarize_features(make_matrix([[0.0], [0.0], [0.0], [1.0]])).stats[0]
    assert s.mean == 0.25
    assert s.distinct == 2


def test_summary_matches_sort_based_quantile_oracle():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 4))
    summary = summarize_features(make_matrix(X))
    for j, s in enumerate(summary.stats):
        assert s.q1 == pytest.approx(brute_quantile(X[:, j], 0.25), abs=1e-12)
        assert s.median == pytest.approx(brute_quantile(X[:, j], 0.5), abs=1e-12)
        assert s.q3 == pytest.approx(brute_quantile(X[:, j], 0.75), abs=1e-12)


def test_summary_empty_matrix():
    with pytest.raises(EmptyMatrix):
        summarize_features(make_matrix(np.zeros((0, 2))))


def test_summary_render_lists_stats():
    text = summarize_features(make_matrix([[1.0], [2.0]], columns=["width"])).render()
    assert "width:" in text
    for token in ("min=", "q1=", "median=", "q3=", "max=", "mean=", "stddev=", "distinct="):
        assert token in text


# ----------------------------------------------------- statistical oracle

def _verdict_for(values, whisker=1.5):
    summary = summarize_features(make_matrix(values))
    return statistical_oracle(summary, whisker=whisker)[0]


def test_oracle_zero_at_median():
    v = _verdict_for([[0.0], [2.0], [4.0], [6.0]])
    summary = summarize_features(make_matrix([[0.0], [2.0], [4.0], [6.0]]))
    assert v.value_scorer(summary.stats[0].median) == 0.0


def test_oracle_distance_beyond_fence():
    # q1=0, q3=4 -> fence hi = 10; v=16 scores -(16-10)/(4+eps)
    values = [[-2.0], [0.0], [2.0], [4.0], [6.0]]
    summary = summarize_features(make_matrix(values))
    s = summary.stats[0]
    assert (s.q1, s.q3) == (0.0, 4.0)
    v = statistical_oracle(summary)[0]
    assert v.fence_hi == pytest.approx(10.0)
    assert v.value_scorer(16.0) == pytest.approx(-1.5, rel=1e-6)


def test_oracle_degenerate_iqr():
    v = _verdict_for([[5.0]] * 10)
    assert v.value_scorer(5.0) == 0.0
    assert v.value_scorer(5.1) == -1.0
    assert v.value_scorer(-3.0) == -1.0


def test_oracle_zero_inside_band_decreasing_outside():
    v = _verdict_for([[float(x)] for x in range(11)])
    lo, hi = v.fence_lo, v.fence_hi
    assert v.value_scorer(lo) == 0.0
    assert v.value_scorer(hi) == 0.0
    assert v.value_scorer((lo + hi) / 2) == 0.0
    outside = [hi + d for d in (0.5, 1.0, 2.0, 5.0)]
    scores = [v.value_scorer(x) for x in outside]
    assert all(s < 0 for s in scores)
    assert scores == sorted(scores, reverse=True)  # further out, more negative
    below = [v.value_scorer(lo - d) for d in (0.5, 1.0, 2.0)]
    assert below == sorted(below, reverse=True)


# ------------------------------------------------------------ abstraction

def test_abstract_empty_lifecycle():
    log = build_log([], [("o1", "t")])
    text = abstract_lifecycle(log, "o1")
    assert "no events" in text
    assert "duration_seconds: 0" in text


def test_abstract_shows_duplicate_timestamps():
    log = build_log(
        [
            ("e1", "Approve Requisition", 100.0, ["o1"]),
            ("e2", "Create Purchase Order", 100.0, ["o1"]),
        ],
        [("o1", "order")],
    )
    text = abstract_lifecycle(log, "o1")
    stamps = [line.split("  ")[1] for line in text.splitlines() if line.split("  ")[0] in ("e1", "e2")]
    assert len(stamps) == 2
    assert stamps[0] == stamps[1]  # the duplicate-timestamp pattern is visible


def test_abstract_truncates_head_and_tail():
    events = [(f"e{i:04d}", "A", 1000.0 + i, ["o1"]) for i in range(500)]
    log = build_log(events, [("o1", "t")])
    text = abstract_lifecycle(log, "o1", max_events=50)
    event_lines = [line for line in text.splitlines() if line.startswith("e0")]
    assert len(event_lines) == 50
    assert event_lines[24].startswith("e0024")
    assert event_lines[25].startswith("e0475")
    assert "450 events elided" in text


def test_abstract_deterministic_and_injective():
    log1 = build_log(
        [("e1", "A", 1.0, ["o1"]), ("e2", "B", 2.0, ["o1"])],
        [("o1", "t")],
    )
    log2 = build_log(
        [("e1", "A", 1.0, ["o1"]), ("e2", "C", 2.0, ["o1"])],
        [("o1", "t")],
    )
    assert abstract_lifecycle(log1, "o1") == abstract_lifecycle(log1, "o1")
    assert abstract_lifecycle(log1, "o1") != abstract_lifecycle(log2, "o1")


def test_abstract_lists_related_objects_and_interactions():
    log = build_log(
        [("e1", "Receive Invoice", 50.0, ["po1", "i1"])],
        [("po1", "order"), ("i1", "invoice")],
    )
    text = abstract_lifecycle(log, "po1")
    assert "i1[invoice]" in text
    assert "interact: invoice=1 order=0" in text


def test_abstract_unknown_object():
    log = build_log([], [])
    with pytest.raises(UnknownObject):
        abstract_lifecycle(log, "ghost")


# ---------------------------------------------------------- LLM transport

class _StubHandler(http.server.BaseHTTPRequestHandler):
    requests_seen = 0
    behavior = "echo"
    delay = 0.0

    def do_POST(self):
        type(self).requests_seen += 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.delay:
            time.sleep(self.delay)
        if self.behavior == "error":
            self.send_response(500)
            self.end_headers()
            return
        if self.behavior == "garbage":
            payload = b'{"unexpected": true}'
        elif self.behavior == "number":  # the schema's shape, but a content that is not text
            payload = b'{"choices": [{"message": {"role": "assistant", "content": 42}}]}'
        else:
            reply = {
                "choices": [
                    {"message": {"role": "assistant", "content": f"echo:{body['messages'][1]['content']}"}}
                ]
            }
            payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.requests_seen = 0
    _StubHandler.behavior = "echo"
    _StubHandler.delay = 0.0
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    thread.join(timeout=2)


def test_llm_echo_returned_verbatim(stub_server):
    reply = llm_oracle(stub_server, api_key="k", prompt="hello table", timeout=5.0)
    assert reply == "echo:hello table"


def test_llm_http_error_surfaces_status(stub_server):
    _StubHandler.behavior = "error"
    with pytest.raises(LlmHttpError) as exc:
        llm_oracle(stub_server, api_key="k", prompt="x", timeout=5.0)
    assert exc.value.status == 500


def test_llm_timeout(stub_server):
    _StubHandler.delay = 2.0
    with pytest.raises(LlmTimeout):
        llm_oracle(stub_server, api_key="k", prompt="x", timeout=0.3)


def test_llm_schema_mismatch(stub_server):
    _StubHandler.behavior = "garbage"
    with pytest.raises(LlmSchemaError):
        llm_oracle(stub_server, api_key="k", prompt="x", timeout=5.0)


def test_llm_content_that_is_not_text_is_a_schema_mismatch(stub_server):
    _StubHandler.behavior = "number"
    with pytest.raises(LlmSchemaError, match="message content is not text"):
        llm_oracle(stub_server, api_key="k", prompt="x", timeout=5.0)


def test_llm_exactly_one_request_per_call(stub_server):
    llm_oracle(stub_server, api_key="k", prompt="one", timeout=5.0)
    assert _StubHandler.requests_seen == 1
    llm_oracle(stub_server, api_key="k", prompt="two", timeout=5.0)
    assert _StubHandler.requests_seen == 2


def test_llm_error_is_not_retried(stub_server):
    _StubHandler.behavior = "error"
    with pytest.raises(LlmHttpError):
        llm_oracle(stub_server, api_key="k", prompt="x", timeout=5.0)
    assert _StubHandler.requests_seen == 1
