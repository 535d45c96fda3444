"""Tests of the benchmark's own arithmetic and of its wire framing."""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest

from benchstats import percentile, self_time, slice_rates
from layers import LayerTracer
from loadgen import ping, run_load
from wire import FrameReader, encode_frame, encode_predict


def test_self_time_subtracts_the_union_of_child_spans():
    # Children overlap (1-3 and 2-5 cover 1-5) and one runs past the end.
    children = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0), (9.5, 12.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(10.0 - 4 - 1 - 0.5)
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0


def test_tracer_charges_nested_time_to_the_innermost_span():
    tracer = LayerTracer(keep_samples=("outer",))
    tracer.recording = True
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("outer", lambda: (inner(), time.sleep(0.01)))
    outer()
    total = tracer.samples["outer"][0]
    assert tracer.self_s["inner"] >= 0.02
    assert 0.01 <= tracer.self_s["outer"] < total - 0.02
    assert tracer.self_s["outer"] + tracer.self_s["inner"] == pytest.approx(
        total)


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))
    assert percentile(samples, 90) == 90  # ten samples lie beyond
    assert percentile(samples[:99], 90) is None  # nine lie beyond
    assert percentile(list(range(1, 21)), 50) == 10
    assert percentile(list(range(1, 20)), 50) is None
    assert percentile([], 50) is None
    assert percentile(list(range(1, 21)), 90, min_beyond=1) == 18


def test_slice_rates_measure_each_whole_slice():
    times = [0.0, 0.5, 1.0, 1.25, 1.5, 1.75, 2.1]
    assert slice_rates(times, 0.0, 2.5) == [2.0, 4.0]


def test_frame_reader_splits_a_byte_stream_into_frames():
    stream = encode_frame({"id": 1}) + encode_frame({"id": 2}, b"abcd")
    reader = FrameReader()
    frames = reader.feed(stream[:7]) + reader.feed(stream[7:])
    assert frames == [({"id": 1}, b""),
                      ({"id": 2, "payload_nbytes": 4}, b"abcd")]


@pytest.fixture(scope="module")
def live_server():
    from repro import FrontendConfig, ServeFrontend, build_engine
    from serve_worker import build_artifact

    artifact = build_artifact("mlp-mini", seed=4)
    frontend = ServeFrontend(lambda: build_engine(artifact),
                             config=FrontendConfig()).start()
    try:
        yield frontend.address, build_engine(artifact, backend="reference")
    finally:
        frontend.close()


def test_generator_frames_decode_on_a_live_server(live_server):
    address, reference = live_server
    samples = np.random.default_rng(0).random((8, 1, 14, 14),
                                              dtype=np.float32)
    assert ping(address)["status"] == "ok"
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(b"".join(encode_predict(i, s)
                              for i, s in enumerate(samples)))
        reader, answers = FrameReader(), {}
        while len(answers) < len(samples):
            for header, _ in reader.feed(sock.recv(1 << 16)):
                answers[header["id"]] = header
    assert all(answers[i]["status"] == "ok" for i in range(len(samples)))
    labels = [answers[i]["label"] for i in range(len(samples))]
    assert labels == reference.predict(samples).tolist()


def test_closed_loop_answers_every_request(live_server):
    address, reference = live_server
    samples = np.random.default_rng(1).random((4096, 1, 14, 14),
                                              dtype=np.float32)
    load = run_load(address, lambda i: encode_predict(i, samples[i]),
                    warmup_s=0.0, measure_s=0.3, window=8)
    sent = len(load["sent"])
    assert 0 < sent < len(samples)
    assert load["status"] == ["ok"] * sent
    assert load["label"] == reference.predict(samples[:sent]).tolist()
