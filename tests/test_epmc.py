"""Cursor-paginated literature client: pagination, resumption, retry, and
error classification, exercised against a local stub server."""

from __future__ import annotations

import gzip
import json

import pytest

from conftest import canned, provider_record
from hazardex.epmc import (
    FIRST_CURSOR,
    DecodeError,
    EuropePmcClient,
    FetchError,
    RateLimiter,
)

QUERY = "cadmium AND dairy"


def make_client(url, **kwargs):
    kwargs.setdefault("page_size", 10)
    kwargs.setdefault("rate_limit", 10_000.0)  # keep tests fast
    kwargs.setdefault("sleep", lambda _s: None)
    return EuropePmcClient(url, **kwargs)


class TestPagination:
    def test_walks_every_page_exactly_once(self, stub_api):
        stub = stub_api([provider_record(i) for i in range(25)])
        pages = list(make_client(stub.url).iter_pages(QUERY))
        assert [len(p.records) for p in pages] == [10, 10, 5]
        assert [p.cursor for p in pages] == ["*", "c10", "c20"]
        assert len(stub.requests) == 3
        ids = [rec.source_id for page in pages for rec in page.records]
        assert ids == [f"STUB{i}" for i in range(25)]

    def test_stops_when_provider_repeats_the_cursor(self, stub_api):
        stub = stub_api([provider_record(i) for i in range(5)])
        pages = list(make_client(stub.url).iter_pages(QUERY))
        assert len(pages) == 1
        assert pages[0].next_cursor == pages[0].cursor == FIRST_CURSOR

    def test_sends_standard_query_parameters(self, stub_api):
        stub = stub_api([provider_record(0)])
        list(make_client(stub.url).iter_pages(QUERY))
        sent = stub.requests[0]
        assert sent["query"] == QUERY
        assert sent["resultType"] == "core"
        assert sent["format"] == "json"
        assert sent["pageSize"] == "10"
        assert sent["cursorMark"] == "*"

    def test_hit_count_and_rich_fields_survive_parsing(self, stub_api):
        stub = stub_api([provider_record(3)])
        (page,) = make_client(stub.url).iter_pages(QUERY)
        assert page.hit_count == 1
        rec = page.records[0]
        assert rec.doi == "10.5555/stub3"
        assert rec.publication_year == 2003
        assert rec.publication_types == ("research-article",)

    def test_records_missing_optional_fields_still_parse(self, stub_api):
        bare = {"id": "BARE", "abstractText": "text", "title": "t"}
        stub = stub_api([bare])
        (page,) = make_client(stub.url).iter_pages(QUERY)
        rec = page.records[0]
        assert rec.doi is None
        assert rec.publication_year is None
        assert rec.publication_types == ()


class TestResumption:
    def test_resume_from_cursor_covers_the_remainder(self, stub_api):
        records = [provider_record(i) for i in range(25)]
        stub = stub_api(records)
        client = make_client(stub.url)
        it = client.iter_pages(QUERY)
        first = next(it)
        it.close()  # simulate being interrupted after one page
        resumed = list(client.iter_pages(QUERY, start_cursor=first.next_cursor))
        combined = {rec.source_id for rec in first.records}
        combined |= {rec.source_id for page in resumed for rec in page.records}
        assert combined == {f"STUB{i}" for i in range(25)}

    def test_union_of_keys_is_independent_of_page_size(self, stub_api):
        records = [provider_record(i) for i in range(17)]
        seen = []
        for size in (3, 7, 17, 50):
            stub = stub_api(records)
            pages = list(make_client(stub.url, page_size=size).iter_pages(QUERY))
            seen.append({rec.source_id for p in pages for rec in p.records})
        assert all(s == seen[0] for s in seen)


class TestFailureHandling:
    def test_retries_transient_server_errors(self, stub_api):
        stub = stub_api([provider_record(0)], fail_plan=[500, 503, 429])
        (page,) = make_client(stub.url).iter_pages(QUERY)
        assert len(page.records) == 1
        assert len(stub.requests) == 4  # three failures then success

    def test_gives_up_after_max_retries(self, stub_api):
        stub = stub_api([provider_record(0)], fail_plan=[500] * 10)
        client = make_client(stub.url, max_retries=2)
        with pytest.raises(FetchError) as err:
            list(client.iter_pages(QUERY))
        assert err.value.cursor == "*"
        assert len(stub.requests) == 3  # initial try plus two retries

    def test_client_errors_are_not_retried(self, stub_api):
        stub = stub_api([provider_record(0)], fail_plan=[404])
        with pytest.raises(FetchError) as err:
            list(make_client(stub.url).iter_pages(QUERY))
        assert "404" in str(err.value)
        assert err.value.cursor == "*"
        assert len(stub.requests) == 1

    def test_error_carries_the_failing_cursor(self, stub_api):
        records = [provider_record(i) for i in range(25)]
        stub = stub_api(records, fail_plan=[])
        client = make_client(stub.url)
        it = client.iter_pages(QUERY)
        next(it)
        stub.fail_plan.append(404)
        with pytest.raises(FetchError) as err:
            next(it)
        assert err.value.cursor == "c10"

    def test_unparseable_body_raises_decode_error(self, stub_api):
        stub = stub_api([provider_record(0)], fail_plan=["garbage"])
        with pytest.raises(DecodeError) as err:
            list(make_client(stub.url).iter_pages(QUERY))
        assert err.value.cursor == "*"

    def test_json_body_with_wrong_shape_raises_decode_error(self):
        from hazardex.epmc import _parse_page

        with pytest.raises(DecodeError) as err:
            _parse_page({"resultList": {}}, "c5")
        assert err.value.cursor == "c5"


def one_page(*records) -> bytes:
    return json.dumps({
        "hitCount": len(records),
        "nextCursorMark": FIRST_CURSOR,
        "resultList": {"result": list(records)},
    }).encode("utf-8")


class TestTransport:
    def test_gzip_encoded_page_is_decoded(self, local_server):
        page = gzip.compress(one_page(provider_record(0)))
        server = local_server(canned(page, headers={"Content-Encoding": "gzip"}))
        (page,) = make_client(server.url + "/search").iter_pages(QUERY)
        assert [rec.source_id for rec in page.records] == ["STUB0"]
        ((_, _, headers),) = server.seen
        assert "gzip" in headers["Accept-Encoding"]

    def test_http_proxy_carries_the_request_and_no_proxy_bypasses_it(
        self, local_server, no_proxy_env
    ):
        origin = local_server(canned(one_page(provider_record(0))))
        proxy = local_server(canned(one_page(provider_record(1))))
        endpoint = origin.url + "/search"
        no_proxy_env.setenv("HTTP_PROXY", proxy.url)
        (page,) = make_client(endpoint).iter_pages(QUERY)
        assert page.records[0].source_id == "STUB1"
        ((method, target, _),) = proxy.seen
        assert method == "GET" and target.startswith(endpoint + "?query=")
        assert origin.seen == []

        no_proxy_env.setenv("NO_PROXY", "127.0.0.1")
        (page,) = make_client(endpoint).iter_pages(QUERY)
        assert page.records[0].source_id == "STUB0"
        assert len(proxy.seen) == 1
        ((_, target, _),) = origin.seen
        assert target.startswith("/search?query=")


class TestRateLimiter:
    def test_spaces_calls_by_the_configured_interval(self):
        sleeps = []
        now = [0.0]

        def clock():
            return now[0]

        def sleep(amount):
            sleeps.append(amount)
            now[0] += amount

        limiter = RateLimiter(5.0, sleep=sleep, clock=clock)
        limiter.wait()
        limiter.wait()
        limiter.wait()
        assert sleeps == pytest.approx([0.2, 0.2])

    def test_no_wait_after_a_natural_gap(self):
        sleeps = []
        now = [0.0]
        limiter = RateLimiter(5.0, sleep=sleeps.append, clock=lambda: now[0])
        limiter.wait()
        now[0] += 1.0
        limiter.wait()
        assert sleeps == []

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            RateLimiter(0.0)
