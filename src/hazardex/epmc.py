"""Europe PMC search client: cursor pagination, rate limiting, bounded retries.

Pagination is cursor-chained, so pages are fetched sequentially; the rate
limiter spaces every attempt, and transient failures (429/5xx, transport
errors) are retried with exponential backoff by a `transport.Transport`,
the standard-library HTTP layer the completion backend uses too. A failed
page surfaces the cursor it was requested with so a caller can resume
without refetching earlier pages.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from typing import Iterator
from urllib.parse import urlencode

from .corpus import RawRecord
from .transport import Transport, Unreachable

log = logging.getLogger(__name__)

DEFAULT_ENDPOINT = "https://www.ebi.ac.uk/europepmc/webservices/rest/search"
FIRST_CURSOR = "*"

_RETRY_STATUSES = {429, 500, 502, 503, 504}


class FetchError(Exception):
    """Transport-level failure after retries; carries the cursor to resume from."""

    def __init__(self, message: str, cursor: str):
        super().__init__(message)
        self.cursor = cursor


class DecodeError(Exception):
    """The provider answered, but the payload is not the expected JSON shape."""

    def __init__(self, message: str, cursor: str):
        super().__init__(message)
        self.cursor = cursor


@dataclass(frozen=True)
class ResultPage:
    cursor: str
    next_cursor: str | None
    hit_count: int
    records: tuple[RawRecord, ...]


class RateLimiter:
    """Spaces calls so at most `rate` of them start per second."""

    def __init__(self, rate: float, sleep=time.sleep, clock=time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._interval = 1.0 / rate
        self._sleep = sleep
        self._clock = clock
        self._last: float | None = None

    def wait(self) -> None:
        now = self._clock()
        if self._last is not None:
            remaining = self._last + self._interval - now
            if remaining > 0:
                self._sleep(remaining)
                now = self._clock()
        self._last = now


def _parse_year(value) -> int | None:
    try:
        return int(str(value))
    except (TypeError, ValueError):
        return None


def _parse_pub_types(result: dict) -> tuple[str, ...]:
    pub_types = result.get("pubTypeList")
    if isinstance(pub_types, dict):
        pub_types = pub_types.get("pubType", [])
    if isinstance(pub_types, str):
        pub_types = [pub_types]
    if not isinstance(pub_types, list):
        return ()
    return tuple(str(t) for t in pub_types)


def _parse_record(result: dict) -> RawRecord:
    return RawRecord(
        source_id=str(result.get("id", "")),
        doi=result.get("doi"),
        title=result.get("title", "") or "",
        abstract_text=result.get("abstractText", "") or "",
        publication_year=_parse_year(result.get("pubYear")),
        publication_types=_parse_pub_types(result),
    )


def _parse_page(payload: dict, cursor: str) -> ResultPage:
    try:
        hit_count = int(payload["hitCount"])
        results = payload.get("resultList", {}).get("result", [])
        records = tuple(_parse_record(r) for r in results)
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"malformed result page at cursor {cursor!r}: {exc}", cursor) from exc
    next_cursor = payload.get("nextCursorMark")
    return ResultPage(
        cursor=cursor,
        next_cursor=str(next_cursor) if next_cursor is not None else None,
        hit_count=hit_count,
        records=records,
    )


class EuropePmcClient:
    def __init__(
        self,
        endpoint: str = DEFAULT_ENDPOINT,
        *,
        page_size: int = 1000,
        rate_limit: float = 5.0,
        max_retries: int = 5,
        backoff_base: float = 0.5,
        timeout: float = 60.0,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint
        self.page_size = page_size
        self._limiter = RateLimiter(rate_limit, sleep=sleep)
        self._transport = Transport(
            timeout=timeout,
            max_retries=max_retries,
            backoff_base=backoff_base,
            retryable=_RETRY_STATUSES.__contains__,
            sleep=sleep,
        )

    def _request_page(self, query: str, cursor: str) -> dict:
        params = {
            "query": query,
            "resultType": "core",
            "format": "json",
            "pageSize": str(self.page_size),
            "cursorMark": cursor,
        }
        url = f"{self.endpoint}{'&' if '?' in self.endpoint else '?'}{urlencode(params)}"

        def on_retry(delay: float, last_error: Exception | None) -> None:
            log.warning("retrying cursor %r in %.2fs (%s)", cursor, delay, last_error)

        try:
            status, body = self._transport.send(
                url, before_attempt=self._limiter.wait, on_retry=on_retry
            )
        except Unreachable as exc:
            raise FetchError(
                f"giving up on cursor {cursor!r} after {self._transport.max_retries} retries: "
                f"{exc.last_error}",
                cursor,
            ) from exc
        if status != 200:
            raise FetchError(f"HTTP {status} at cursor {cursor!r}", cursor)
        try:
            return json.loads(body)
        except ValueError as exc:
            raise DecodeError(f"invalid JSON at cursor {cursor!r}: {exc}", cursor) from exc

    def iter_pages(self, query: str, start_cursor: str = FIRST_CURSOR) -> Iterator[ResultPage]:
        """Walk the cursor chain from start_cursor until the provider repeats itself."""
        cursor = start_cursor
        while True:
            page = _parse_page(self._request_page(query, cursor), cursor)
            if not page.records:
                return
            yield page
            if page.next_cursor is None or page.next_cursor == cursor:
                return
            cursor = page.next_cursor
