"""End-to-end tests of the analysis service over a real socket.

Every test here starts an actual asyncio server on an ephemeral port
(via :func:`repro.serve.start_in_thread`) and talks to it with the
blocking :class:`repro.serve.ServeClient` — the same path a user's
tooling takes.  Covered: the analyze/sizing request cycle including the
content-address cache (hit counters asserted), request coalescing, the
async campaign lifecycle with progress polling, warm restarts from a
persistent run directory, and the HTTP error paths.
"""

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaigns.spec import CampaignSpec
from repro.experiments.schedulability_sweep import schedulability_spec
from repro.serve import (
    AnalysisService,
    ServeClient,
    ServeConfig,
    ServeError,
    start_in_thread,
)
from repro.serve.service import CampaignStatus, campaign_id
from repro.workloads.didactic import didactic_flowset
from repro.workloads.synthetic import SyntheticConfig, synthetic_flowset


@pytest.fixture
def server():
    handle = start_in_thread(ServeConfig(port=0, workers=0))
    yield handle
    handle.close()


@pytest.fixture
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


@pytest.fixture
def flowset():
    return didactic_flowset(buf=2)


def tiny_spec(name="serve_e2e"):
    """A campaign small enough to finish within a test."""
    return schedulability_spec(
        (4, 4), [10, 20], 2, seed=7, name=name, chunk_size=1
    )


class TestBasicEndpoints:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_index_lists_endpoints(self, client):
        body = client.request("GET", "/")
        assert "POST /analyze" in body["endpoints"]

    def test_stats_counts_requests(self, client):
        client.healthz()
        assert client.stats()["requests"] >= 1

    def test_stats_reports_active_backend(self, client):
        from repro.core.backend import registered_backend_names

        assert client.stats()["backend"] in registered_backend_names()

    def test_keep_alive_reuses_connection(self, client):
        # Both requests travel over the client's single keep-alive
        # connection; the server must answer each independently.
        first = client.healthz()
        second = client.healthz()
        assert first["status"] == second["status"] == "ok"


class TestAnalyze:
    def test_didactic_bounds(self, client, flowset):
        body = client.analyze(flowset)
        assert body["analysis"] == "IBN2"
        assert body["schedulable"] is True
        result = body["results"]["IBN2"]
        assert result["flows"]["t3"]["response_time"] == 348
        assert body["cached"] is False and body["source"] == "computed"

    def test_all_analyses(self, client, flowset):
        body = client.analyze(flowset, analysis="all")
        assert set(body["results"]) == {"SB", "XLW16", "XLWX", "IBN2"}
        assert body["results"]["XLWX"]["flows"]["t3"]["response_time"] == 460

    def test_buffer_override(self, client, flowset):
        body = client.analyze(flowset, buf=10)
        assert body["analysis"] == "IBN10"
        assert body["results"]["IBN10"]["flows"]["t3"]["response_time"] == 396

    def test_repeat_is_served_from_cache(self, client, flowset):
        first = client.analyze(flowset)
        second = client.analyze(flowset)
        assert second["job"] == first["job"]
        assert second["cached"] is True and second["source"] == "cache"
        assert second["results"] == first["results"]
        stats = client.stats()
        assert stats["executed"] == 1
        assert stats["cache"]["hits"] == 1

    def test_hash_ignores_json_spelling(self, client, flowset):
        """Key order and null-vs-absent buf must not split the cache."""
        from repro.io import flowset_to_dict

        doc = flowset_to_dict(flowset)
        first = client.analyze(doc)
        shuffled = {k: doc[k] for k in reversed(list(doc))}
        second = client.request(
            "POST", "/analyze",
            {"analysis": "ibn", "flowset": shuffled, "buf": None},
        )
        assert second["job"] == first["job"]
        assert second["cached"] is True

    def test_concurrent_identical_requests_compute_once(
        self, server, flowset
    ):
        def one_request(_):
            with ServeClient(server.host, server.port) as c:
                return c.analyze(flowset)

        with ThreadPoolExecutor(max_workers=4) as pool:
            bodies = list(pool.map(one_request, range(4)))
        assert len({body["job"] for body in bodies}) == 1
        stats = ServeClient(server.host, server.port).stats()
        # However the four raced, exactly one computation ran; the rest
        # were answered from the in-flight future or the cache.
        assert stats["executed"] == 1
        assert stats["coalesced"] + stats["cache"]["hits"] == 3


class TestRunawayRecurrences:
    """Sets whose recurrences run away get verdicts, not huge numbers:
    each used to take seconds to minutes and end in an HTTP 500."""

    @pytest.mark.parametrize("set_index", [266, 773])
    @pytest.mark.parametrize("analysis", ["ibn", "xlwx", "all"])
    def test_answered_within_a_second(self, client, set_index, analysis):
        from repro.noc.platform import NoCPlatform
        from repro.noc.topology import Mesh2D

        flowset = synthetic_flowset(
            NoCPlatform(Mesh2D(4, 4), buf=4), SyntheticConfig(num_flows=150),
            seed=3, set_index=set_index,
        )
        start = time.perf_counter()
        body = client.analyze(flowset, analysis=analysis)
        assert time.perf_counter() - start < 1.0
        assert body["schedulable"] is False
        for result in body["results"].values():
            unbounded = [
                flow for flow in result["flows"].values()
                if not flow["converged"]
            ]
            assert unbounded
            assert all(
                flow["response_time"] is None and flow["slack"] is None
                for flow in unbounded
            )

    def test_timing_input_beyond_the_limit_is_400(self, client, flowset):
        from repro.io import flowset_to_dict

        doc = flowset_to_dict(flowset)
        doc["flows"][0]["jitter"] = 2**60 + 1
        with pytest.raises(ServeError) as err:
            client.request("POST", "/analyze", {"flowset": doc})
        assert err.value.status == 400
        assert "2**60" in err.value.message

    @pytest.mark.parametrize("path", ["/analyze", "/analyze/batch"])
    def test_zero_load_latency_beyond_the_limit_is_400(self, client, path):
        """A flow whose C passes 2**60 is a client error on both
        endpoints (the batch one used to answer 500)."""
        from repro.flows.flow import Flow
        from repro.flows.flowset import FlowSet
        from repro.io import flowset_to_dict
        from repro.noc.platform import NoCPlatform
        from repro.noc.topology import Mesh2D

        doc = flowset_to_dict(FlowSet(
            NoCPlatform(Mesh2D(2, 2), buf=2),
            [Flow("hi", 1, 100, 5, src=0, dst=3),
             Flow("lo", 2, 400, 8, src=1, dst=2)],
        ))
        for flow in doc["flows"]:
            if flow["name"] == "hi":
                flow["length"] = 2**63
        body = {"flowset": doc}
        if path == "/analyze/batch":
            body = {"requests": [body]}
        with pytest.raises(ServeError) as err:
            client.request("POST", path, body)
        assert err.value.status == 400
        assert "hi" in err.value.message and "2**60" in err.value.message


class TestSizing:
    def test_didactic_headroom(self, client, flowset):
        body = client.sizing(flowset, max_depth=32)
        depth = body["max_schedulable_buffer_depth"]
        assert depth["unbounded_within_range"] is True
        assert depth["max_depth"] == 32
        assert body["length_scaling_margin"] > 1.0

    def test_sizing_is_cached_separately_from_analyze(self, client, flowset):
        analyze_job = client.analyze(flowset)["job"]
        sizing_job = client.sizing(flowset)["job"]
        assert analyze_job != sizing_job
        assert client.sizing(flowset)["cached"] is True


class TestCampaigns:
    def test_submit_poll_result(self, client):
        spec = tiny_spec()
        submitted = client.submit_campaign(spec)
        assert submitted["id"] == campaign_id(spec)
        assert submitted["state"] in ("pending", "running")
        done = client.wait_campaign(submitted["id"], timeout=60)
        assert done["state"] == "done"
        assert done["stats"]["jobs_total"] > 0
        progress = done["progress"]
        assert progress["done"] + progress["skipped"] == progress["total"]
        result = done["result"]
        assert "% schedulable" in result["render"]
        assert result["data"] is not None

    def test_resubmission_coalesces_to_same_campaign(self, client):
        spec = tiny_spec()
        first = client.submit_campaign(spec)
        client.wait_campaign(first["id"], timeout=60)
        again = client.submit_campaign(spec)
        assert again["id"] == first["id"]
        assert again["state"] == "done"  # not restarted
        assert len(client.campaigns()) == 1

    def test_distinct_specs_get_distinct_ids(self, client):
        a = client.submit_campaign(tiny_spec("serve_a"))
        b = client.submit_campaign(tiny_spec("serve_b"))
        assert a["id"] != b["id"]
        client.wait_campaign(a["id"], timeout=60)
        client.wait_campaign(b["id"], timeout=60)
        assert len(client.campaigns()) == 2

    def test_bad_campaign_params_rejected_at_submit(self, client):
        """Validation errors are a 400 at submit, never an async 'failed'."""
        broken = CampaignSpec(kind="schedulability", name="broken", params={})
        with pytest.raises(ServeError) as err:
            client.submit_campaign(broken)
        assert err.value.status == 400
        assert "missing" in err.value.message
        assert client.campaigns() == []  # nothing was queued

    def test_failing_campaign_parks_as_failed(self, server, monkeypatch):
        """A runtime failure (pool died, disk full...) parks the campaign."""
        import repro.serve.service as service_module

        def explode(*args, **kwargs):
            raise RuntimeError("store exploded")

        monkeypatch.setattr(service_module, "run_campaign", explode)
        with ServeClient(server.host, server.port) as client:
            submitted = client.submit_campaign(tiny_spec("will_fail"))
            done = client.wait_campaign(submitted["id"], timeout=60)
            assert done["state"] == "failed"
            assert "store exploded" in done["error"]
            # the server is still healthy after the failure
            assert client.healthz()["status"] == "ok"

    def test_failed_campaign_can_be_resubmitted(self, server, monkeypatch):
        """A failure caches nothing: resubmission starts a fresh attempt."""
        import repro.serve.service as service_module

        def explode(*args, **kwargs):
            raise RuntimeError("transient")

        monkeypatch.setattr(service_module, "run_campaign", explode)
        with ServeClient(server.host, server.port) as client:
            first = client.submit_campaign(tiny_spec("retry_me"))
            client.wait_campaign(first["id"], timeout=60)
            monkeypatch.undo()  # the transient cause goes away
            again = client.submit_campaign(tiny_spec("retry_me"))
            assert again["id"] == first["id"]
            # a new attempt was started (not the parked failed record)
            assert again["state"] == "pending"
            done = client.wait_campaign(again["id"], timeout=60)
            assert done["state"] == "done"

    def test_finished_campaigns_are_evicted_beyond_history(self):
        config = ServeConfig(port=0, workers=0, campaign_history=1)
        with start_in_thread(config) as handle:
            with ServeClient(handle.host, handle.port) as c:
                first = c.submit_campaign(tiny_spec("serve_hist_a"))
                c.wait_campaign(first["id"], timeout=60)
                second = c.submit_campaign(tiny_spec("serve_hist_b"))
                c.wait_campaign(second["id"], timeout=60)
                # the older finished campaign fell out of the history
                with pytest.raises(ServeError) as err:
                    c.campaign(first["id"])
                assert err.value.status == 404
                assert c.campaign(second["id"])["state"] == "done"

    def test_nan_in_request_is_400_end_to_end(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request("POST", "/analyze", body=b'{"flowset": NaN}',
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert b"NaN" in response.read()
        conn.close()

    def test_active_campaign_cap_returns_429(self):
        """New specs beyond max_active_campaigns are rejected, not queued."""
        from repro.serve.http import HttpRequest

        async def go():
            service = AnalysisService(
                ServeConfig(workers=0, max_active_campaigns=1)
            )
            # one campaign parked in "running" state
            blocker = CampaignStatus("blocker-id", tiny_spec("blocker"))
            blocker.state = "running"
            service.campaigns["blocker-id"] = blocker
            body = json.dumps(tiny_spec("rejected").to_dict()).encode()
            request = HttpRequest(method="POST", path="/campaign", body=body)
            try:
                await service.handle(request)
            except Exception as exc:
                return exc
            finally:
                await service.aclose()
            return None

        error = asyncio.run(go())
        assert error is not None and error.status == 429
        assert "retry later" in error.message

    def test_unknown_campaign_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.campaign("no-such-id")
        assert err.value.status == 404

    def test_unknown_kind_rejected_at_submit(self, client):
        doc = {
            "format": "repro-campaign/1",
            "kind": "not_a_kind",
            "name": "x",
            "params": {},
        }
        with pytest.raises(ServeError) as err:
            client.submit_campaign(doc)
        assert err.value.status == 400


class TestPersistence:
    def test_warm_restart_answers_from_store(self, tmp_path, flowset):
        config = dict(port=0, workers=0, run_dir=str(tmp_path))
        with start_in_thread(ServeConfig(**config)) as first:
            with ServeClient(first.host, first.port) as c:
                job = c.analyze(flowset)["job"]
        with start_in_thread(ServeConfig(**config)) as second:
            with ServeClient(second.host, second.port) as c:
                body = c.analyze(flowset)
                assert body["job"] == job
                assert body["cached"] is True
                stats = c.stats()
                assert stats["executed"] == 0
                assert stats["cache"]["store_hits"] == 1

    def test_campaign_resumes_from_store(self, tmp_path):
        spec = tiny_spec()
        config = dict(port=0, workers=0, run_dir=str(tmp_path))
        with start_in_thread(ServeConfig(**config)) as first:
            with ServeClient(first.host, first.port) as c:
                cold = c.wait_campaign(
                    c.submit_campaign(spec)["id"], timeout=60
                )
        with start_in_thread(ServeConfig(**config)) as second:
            with ServeClient(second.host, second.port) as c:
                warm = c.wait_campaign(
                    c.submit_campaign(spec)["id"], timeout=60
                )
        assert warm["stats"]["jobs_run"] == 0
        assert warm["stats"]["jobs_skipped"] == cold["stats"]["jobs_total"]
        assert warm["result"]["render"] == cold["result"]["render"]


class TestErrorPaths:
    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.request("GET", "/nope")
        assert err.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeError) as err:
            client.request("GET", "/analyze")
        assert err.value.status == 405

    def test_bad_json_body_is_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request("POST", "/analyze", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert b"invalid JSON" in response.read()
        conn.close()

    def test_missing_flowset_is_400(self, client):
        with pytest.raises(ServeError) as err:
            client.request("POST", "/analyze", {"analysis": "ibn"})
        assert err.value.status == 400
        assert "flowset" in err.value.message

    def test_bad_flowset_document_is_400(self, client):
        with pytest.raises(ServeError) as err:
            client.request(
                "POST", "/analyze", {"flowset": {"format": "nope"}}
            )
        assert err.value.status == 400
        assert "invalid flowset" in err.value.message

    @pytest.mark.parametrize("doc", [
        {"format": "repro-flowset/1", "platform": {"topology": "mesh"}},
        {"format": "repro-flowset/1",
         "platform": {"topology": {"type": "mesh"}}, "flows": []},
        {"format": "repro-flowset/1",
         "platform": {"topology": {"type": "mesh", "cols": 2, "rows": 2},
                      "buf": 2}, "flows": [{"name": "x"}]},
        {"format": "repro-flowset/1", "platform": [], "flows": []},
    ])
    def test_structurally_wrong_flowsets_are_400_not_500(self, client, doc):
        """Any malformed document shape is a client error, never a 500."""
        with pytest.raises(ServeError) as err:
            client.request("POST", "/analyze", {"flowset": doc})
        assert err.value.status == 400
        assert "invalid flowset" in err.value.message

    def test_unknown_analysis_is_400(self, client, flowset):
        with pytest.raises(ServeError) as err:
            client.analyze(flowset, analysis="magic")
        assert err.value.status == 400
        assert "magic" in err.value.message

    def test_bad_buf_is_400(self, client, flowset):
        with pytest.raises(ServeError) as err:
            client.analyze(flowset, buf=-3)
        assert err.value.status == 400

    def test_malformed_http_gets_error_response(self, server):
        import socket

        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_truncated_body_gets_400_not_crash(self, server):
        import socket

        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /analyze HTTP/1.1\r\nContent-Length: 100\r\n\r\nhalf"
            )
            sock.shutdown(socket.SHUT_WR)  # close mid-body
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")
        # and the server survived
        assert ServeClient(server.host, server.port).healthz()["status"] == "ok"

    def test_idle_connection_is_reclaimed(self):
        import socket
        import time

        config = ServeConfig(port=0, workers=0, idle_timeout_s=0.3)
        with start_in_thread(config) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=10
            ) as sock:
                start = time.monotonic()
                assert sock.recv(4096) == b""  # server closed on us
                assert time.monotonic() - start < 5
            # and the server still accepts fresh connections
            assert (
                ServeClient(handle.host, handle.port).healthz()["status"]
                == "ok"
            )

    def test_oversized_upload_still_receives_the_413(self, server):
        """The error response survives unread body bytes (no RST)."""
        import socket

        head = (
            b"POST /analyze HTTP/1.1\r\n"
            b"Content-Length: 99999999\r\n\r\n"
        )
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(head + b"x" * 65536)  # body bytes already in flight
            reply = sock.recv(65536)
        assert reply.startswith(b"HTTP/1.1 413")

    def test_executor_failure_is_500(self, server, flowset, monkeypatch):
        import repro.campaigns.registry as registry

        def explode(kind, params):
            raise RuntimeError("worker crashed")

        def explode_block(kind, params_list):
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(registry, "execute_job", explode)
        # analyze cache misses reach workers through the micro-batcher's
        # block path; both entry points must surface as 500.
        monkeypatch.setattr(registry, "execute_block", explode_block)
        with ServeClient(server.host, server.port) as c:
            with pytest.raises(ServeError) as err:
                c.analyze(flowset)
            assert err.value.status == 500
            assert "worker crashed" in err.value.message
            # nothing poisoned: the server still answers
            assert c.healthz()["status"] == "ok"


class TestCoalescingInternals:
    def test_inflight_future_is_shared(self, monkeypatch):
        """Two concurrent identical jobs: one executes, one awaits it."""
        import repro.campaigns.registry as registry

        release = threading.Event()
        calls = []

        def slow_execute(kind, params):
            calls.append(kind)
            assert release.wait(10)
            return {"v": 1}

        monkeypatch.setattr(registry, "execute_job", slow_execute)
        monkeypatch.setattr(
            registry,
            "execute_block",
            lambda kind, params_list: [
                slow_execute(kind, p) for p in params_list
            ],
        )

        async def go():
            service = AnalysisService(ServeConfig(workers=0))
            t1 = asyncio.ensure_future(
                service._run_job("serve_analyze", {"x": 1})
            )
            t2 = asyncio.ensure_future(
                service._run_job("serve_analyze", {"x": 1})
            )
            await asyncio.sleep(0.05)
            assert len(service.inflight) == 1
            assert service.coalesced == 1
            release.set()
            (job1, val1, src1), (job2, val2, src2) = await asyncio.gather(
                t1, t2
            )
            assert job1 == job2 and val1 == val2 == {"v": 1}
            assert {src1, src2} == {"computed", "coalesced"}
            assert service.executed == 1 and len(calls) == 1
            await service.aclose()

        asyncio.run(go())

    def test_inflight_failure_propagates_to_waiters(self, monkeypatch):
        import repro.campaigns.registry as registry

        release = threading.Event()

        def failing_execute(kind, params):
            assert release.wait(10)
            raise RuntimeError("boom")

        monkeypatch.setattr(registry, "execute_job", failing_execute)
        monkeypatch.setattr(
            registry,
            "execute_block",
            lambda kind, params_list: [
                failing_execute(kind, p) for p in params_list
            ],
        )

        async def go():
            service = AnalysisService(ServeConfig(workers=0))
            t1 = asyncio.ensure_future(
                service._run_job("serve_analyze", {"x": 1})
            )
            t2 = asyncio.ensure_future(
                service._run_job("serve_analyze", {"x": 1})
            )
            await asyncio.sleep(0.05)
            release.set()
            results = await asyncio.gather(t1, t2, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
            assert service.executed == 0
            assert len(service.inflight) == 0
            await service.aclose()

        asyncio.run(go())


@pytest.mark.slow
class TestProcessPool:
    """The real production path: jobs on a process pool."""

    def test_analyze_and_campaign_on_processes(self, flowset):
        with start_in_thread(ServeConfig(port=0, workers=2)) as handle:
            with ServeClient(handle.host, handle.port) as c:
                body = c.analyze(flowset)
                assert body["schedulable"] is True
                done = c.wait_campaign(
                    c.submit_campaign(tiny_spec())["id"], timeout=120
                )
                assert done["state"] == "done"
