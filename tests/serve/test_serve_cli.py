"""``repro serve`` end to end: announce, answer, drain on SIGTERM."""

import signal
import subprocess
import sys
import threading
import time

from repro.engine import ExperimentEngine
from repro.serve import (ServeClient, dumps, request_from_json,
                         summary_to_json)

SPEC = {"kernel": "zeroin", "int_regs": 8, "mode": "remat"}


def test_serve_smoke(tmp_path):
    """One server process on an ephemeral port: an allocation request
    answers byte-for-byte like the batch engine, a trace request
    answers, and SIGTERM drains the in-flight request before exit 0."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "1", "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        announce = proc.stdout.readline().strip()
        assert announce.startswith("# serving on ")
        port = int(announce.rsplit(":", 1)[1])

        with ServeClient("127.0.0.1", port, timeout=120) as client:
            assert client.ping()

            served = client.allocate(**SPEC)
            local = ExperimentEngine(jobs=1, use_cache=False).run_many(
                [request_from_json(SPEC)])[0]
            assert dumps(served) == dumps(summary_to_json(local))
            # warm repeat (memo hit) answers the identical bytes
            assert dumps(client.allocate(**SPEC)) == dumps(served)

            trace_text = client.trace(**SPEC)
            assert trace_text.splitlines()[0].startswith(
                '{"type": "meta"')

            # drain: fire a request, SIGTERM the server before the
            # reply, and require both the answer and a clean exit
            drained = {}

            def in_flight():
                drained["result"] = client.allocate(
                    kernel="fehl", int_regs=8)

            worker = threading.Thread(target=in_flight)
            with ServeClient("127.0.0.1", port, timeout=120) as probe:
                before = probe.metrics()["counters"]["serve.op.allocate"]
                worker.start()
                # wait until the server has *received* the request, so
                # the SIGTERM provably races the execution, not the read
                deadline = time.monotonic() + 60
                while probe.metrics()["counters"][
                        "serve.op.allocate"] <= before:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=120)
            assert drained["result"]["function"] == "fehl"

        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.stderr.close()

