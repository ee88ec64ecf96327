"""Tests of the benchmark's own code: inputs, checks, hygiene, output."""

from __future__ import annotations

import asyncio
import collections
import json
import math
import os
import re
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

import frames
import measure
import procs
import run as runner
import trace_run
from generator import Phase
from verify import Reference, Tally, check, verify_phase
from workloads import WORKLOADS, RequestSource, expected_points

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def ref() -> Reference:
    return Reference()


def response_frame(request_id: int, result: dict, arrays: dict | None = None,
                   error: dict | None = None) -> bytes:
    """A wire v1 response frame, built as the protocol specifies."""
    envelope = ({"ok": False, "error": error, "id": request_id} if error else
                {"ok": True, "result": result, "id": request_id})
    blob = json.dumps(envelope, separators=(",", ":")).encode()
    parts = [frames.SECTION.pack(frames.SECTION_JSON, 0, 0, len(blob)), blob]
    for name, values in (arrays or {}).items():
        raw = b"".join(frames.F64.pack(v) for v in values)
        parts += [frames.SECTION.pack(frames.SECTION_F64, 1, len(name), len(raw)),
                  name.encode(), raw]
    body = b"".join(parts)
    header = frames.HEADER.pack(frames.MAGIC, frames.VERSION, frames.KIND_RESPONSE,
                                0, 1 + len(arrays or {}), len(body), request_id)
    return header + body


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reproduces_identical_bodies(name):
    a = RequestSource(WORKLOADS[name], 7, "closed0.0").take(300)
    b = RequestSource(WORKLOADS[name], 7, "closed0.0").take(300)
    assert json.dumps(a) == json.dumps(b)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_changes_parameters_not_mix(name):
    n = 4000 if name == "heavy-closed" else 20000
    a = RequestSource(WORKLOADS[name], 7, "fixed0.0").take(n)
    b = RequestSource(WORKLOADS[name], 8, "fixed0.0").take(n)
    assert json.dumps(a[:50]) != json.dumps(b[:50])

    def kinds(requests):
        counts = collections.Counter(
            "grid" if "intensities" in r else r["op"] for r in requests
        )
        return {k: v / len(requests) for k, v in counts.items()}

    ka, kb = kinds(a), kinds(b)
    assert set(ka) == set(kb)
    for kind in ka:
        assert abs(ka[kind] - kb[kind]) < 0.025, kind


def test_scalar_mix_matches_its_declared_shares():
    workload = WORKLOADS["scalar-open"]
    requests = RequestSource(workload, 3, "closed0.0").take(40000)
    counts = collections.Counter(r["op"] for r in requests)
    for op, share in workload.mix:
        assert abs(counts[op] / len(requests) - share) < 0.01, op


def test_own_codec_matches_the_program_wire():
    from repro.service import wire

    request = {"id": 9, "op": "eval", "machine": "gtx580-double", "model": "time",
               "metric": "time_per_flop", "intensities": [0.5 * i + 1 for i in range(64)]}
    frame = frames.encode_request(dict(request))
    kind, nsections, body_len, seq = wire.parse_header(frame[: wire.HEADER_SIZE])
    assert seq == 9
    assert wire.decode_body(kind, nsections, frame[wire.HEADER_SIZE:]) == request

    import numpy as np

    reply = wire.encode_frame(wire.KIND_RESPONSE, 9, {"ok": True, "result": {}, "id": 9},
                              arrays={"values": np.arange(40.0)})
    assert frames.reply_ok(reply)
    assert frames.decode_frame(reply)["result"]["values"] == list(np.arange(40.0))


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


def test_correct_scalar_passes_and_perturbed_float_fails(ref):
    request = {"id": 4, "op": "eval", "machine": "i7-950-double", "model": "power",
               "metric": "power", "intensity": 1.7}
    value = ref.scalar("i7-950-double", "power", "power", 1.7)
    assert check(request, response_frame(4, {"value": value}), ref) is None
    bad = value * (1.0 + 1e-9)
    assert check(request, response_frame(4, {"value": bad}), ref) is not None


def test_perturbed_curve_sample_fails(ref):
    request = {"id": 5, "op": "curve", "machine": "gtx580-double", "kind": "archline",
               "lo": 0.25, "hi": 256.0, "points_per_octave": 4, "normalized": True}
    from verify import grid_point

    n = expected_points(request)
    xs = [grid_point(request, i) for i in range(n)]
    ys = [ref.curve_point(request, x) for x in xs]
    good = response_frame(5, {"label": "Arch line", "units": ""},
                          {"intensities": xs, "values": ys})
    assert check(request, good, ref) is None
    ys[n // 2] = math.nextafter(ys[n // 2], 2.0) * (1.0 + 1e-9)
    bad = response_frame(5, {"label": "Arch line", "units": ""},
                         {"intensities": xs, "values": ys})
    assert "curve value" in check(request, bad, ref)


def test_analysis_reply_is_checked_against_core(ref):
    request = {"id": 6, "op": "greenup", "machine": "gtx580-double",
               "intensity": 2.0, "m": 2.0}
    want = ref.analysis(request)
    assert check(request, response_frame(6, want), ref) is None
    wrong = dict(want, threshold_exact=want["threshold_exact"] * (1 + 1e-12))
    assert check(request, response_frame(6, wrong), ref) is not None


def test_wrong_id_is_a_mismatch(ref):
    request = {"id": 7, "op": "describe", "machine": "gtx580-double"}
    assert "reply id" in check(request, response_frame(8, ref.analysis(request)), ref)


def answered_phase(ref: Reference, error: dict | None = None) -> Phase:
    """A two-request phase whose replies are correct, or the second an error."""
    async def build() -> Phase:
        return Phase("fixed0.0", [
            {"op": "describe", "machine": "gtx580-double"},
            {"op": "describe", "machine": "i7-950-double"},
        ], 1)

    phase = asyncio.run(build())
    for i, request in enumerate(phase.requests):
        body = {k: v for k, v in request.items() if k != "id"}
        failing = error if i == 1 else None
        phase.replies[i] = response_frame(request["id"], ref.analysis(body), error=failing)
        phase.ok[i] = failing is None
    phase.next_index = 2
    return phase


def test_refused_reply_or_aborted_window_fails_the_run(ref):
    clean = Tally()
    verify_phase(answered_phase(ref), ref, clean)
    assert clean.correct and clean.ok == 2

    refused = Tally()
    verify_phase(answered_phase(ref, {"code": "overloaded", "message": "busy",
                                      "retriable": True}), ref, refused)
    assert refused.refused == 1 and not refused.correct
    line = json.loads(runner.summary(refused.correct, refused, {}))
    assert line["failed"] == 1

    aborted = answered_phase(ref)
    aborted.aborted = True
    tally = Tally()
    verify_phase(aborted, ref, tally)
    assert tally.ok == 2 and tally.aborted == 1 and not tally.correct


def test_calmest_keeps_quiet_items_or_the_least_stolen_half():
    def steal(x):
        return x

    assert measure.calmest([0.2, 0.0, 0.01, 0.1], steal) == [0.0, 0.01]
    assert measure.calmest([0.2, 0.05, 0.0, 0.1, 0.3], steal) == [0.0, 0.05, 0.1]
    assert measure.calmest([0.2], steal) == [0.2]


# ----------------------------------------------------------------------
# Hygiene
# ----------------------------------------------------------------------


def test_clean_run_passes_hygiene():
    token = uuid.uuid4().hex
    assert procs.hygiene(token, [], procs.shm_names(), grace=0.1) == []


def test_planted_orphan_process_fails_hygiene():
    token = uuid.uuid4().hex
    before = procs.shm_names()
    env = dict(os.environ, **{procs.RUN_TOKEN_VAR: token})
    orphan = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"], env=env)
    try:
        problems = procs.hygiene(token, [], before, grace=0.1)
        assert any(str(orphan.pid) in p for p in problems)
    finally:
        orphan.kill()
        orphan.wait()
    assert procs.hygiene(token, [], before, grace=1.0) == []


def test_planted_shm_segment_fails_hygiene():
    token = uuid.uuid4().hex
    before = procs.shm_names()
    segment = Path("/dev/shm") / f"servebench-test-{token}"
    segment.write_bytes(b"x")
    try:
        problems = procs.hygiene(token, [], before, grace=0.1)
        assert any(segment.name in p for p in problems)
    finally:
        segment.unlink()


def test_listening_port_fails_hygiene():
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        s.listen()
        port = s.getsockname()[1]
        problems = procs.hygiene(uuid.uuid4().hex, [port], procs.shm_names(), grace=0.1)
        assert any(str(port) in p for p in problems)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_declared():
    spec = benchmark_json()
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    assert declared_e2e == list(runner.END_TO_END_UNITS)
    assert declared_layer == list(trace_run.LAYER_UNITS)
    for name in declared_e2e + declared_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**runner.END_TO_END_UNITS, **trace_run.LAYER_UNITS}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_summary_line_is_schema_valid():
    tally = Tally(sent=10, ok=9, failed=1)
    rows = {name: (1.5, unit) for name, unit in runner.END_TO_END_UNITS.items()}
    line = json.loads(runner.summary(False, tally, rows))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and line["failed"] == 1
    assert set(line["metrics"]) == set(runner.END_TO_END_UNITS)
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], float)
        assert entry["unit"] == runner.END_TO_END_UNITS[name]


def test_importtime_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        400 |   scipy.stats",
        "import time:        50 |       1000 |   repro.core",
        "import time:        10 |       1500 | repro",
        "import time:         5 |        200 | repro.service",
    ])
    repro_ms, scipy_ms = trace_run.parse_importtime(text)
    assert repro_ms == pytest.approx(1.7)
    assert scipy_ms == pytest.approx(0.7)


def test_runs_nowhere_without_the_program_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "servebench" / "run.py"), "--workload", "scalar-open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
