"""HTTP through the standard library, with the one retry loop both clients use.

`Transport` sends a request with `urllib.request` and retries a transport
error (`URLError`, `OSError`, `http.client.HTTPException`, a timeout, a
broken gzip body) or a status its caller marks as retryable, with
exponential backoff. Any other status comes back with its body for the
caller to judge; an error status is a response here, not an exception.

Proxies come from the environment (`HTTP_PROXY`, `HTTPS_PROXY`, `NO_PROXY`),
read once, when the transport is built. Bodies are requested gzip-encoded
and decoded. Three choices differ from a `requests` session:

- no connection reuse: every request opens its own connection and sends
  `Connection: close`; against a server that takes seconds per answer, one
  handshake per request is noise;
- TLS is checked against the system CA store, not certifi's bundle;
- `~/.netrc` is not read; credentials go in the caller's headers.

`urllib.request` is imported when the first transport is built, so
importing the package loads no HTTP module.
"""

from __future__ import annotations

import gzip
import time
from typing import Callable

from . import __version__

USER_AGENT = f"hazardex/{__version__}"


class Unreachable(Exception):
    """Every attempt ended in a transport error or a retryable status."""

    def __init__(self, last_error: Exception | None):
        super().__init__(str(last_error))
        self.last_error = last_error


class Transport:
    def __init__(
        self,
        *,
        timeout: float,
        max_retries: int,
        backoff_base: float,
        retryable: Callable[[int], bool],
        sleep: Callable[[float], None] = time.sleep,
    ):
        import http.client
        import urllib.request
        import zlib

        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._retryable = retryable
        self._sleep = sleep
        self._request = urllib.request.Request
        self._http_error = urllib.request.HTTPError
        self._transport_errors = (OSError, http.client.HTTPException, EOFError, zlib.error)
        self._opener = urllib.request.build_opener()  # reads the proxy variables
        self._opener.addheaders = [("User-Agent", USER_AGENT), ("Accept-Encoding", "gzip")]

    def send(
        self,
        url: str,
        *,
        data: bytes | None = None,
        headers: dict[str, str] | None = None,
        before_attempt: Callable[[], None] | None = None,
        on_retry: Callable[[float, Exception | None], None] | None = None,
    ) -> tuple[int, bytes]:
        """The status and decoded body of the first answer that is not to be
        retried: a GET, or a POST of `data`. `before_attempt` runs before
        every attempt, `on_retry(delay, last_error)` before every backoff.
        Raises `Unreachable` when the retries are used up."""
        request = self._request(url, data=data, headers=headers or {})
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                delay = self.backoff_base * (2 ** (attempt - 1))
                if on_retry is not None:
                    on_retry(delay, last_error)
                self._sleep(delay)
            if before_attempt is not None:
                before_attempt()
            try:
                status, body = self._attempt(request)
            except self._transport_errors as exc:
                last_error = exc
                continue
            if self._retryable(status):
                last_error = RuntimeError(f"HTTP {status}")
                continue
            return status, body
        raise Unreachable(last_error)

    def _attempt(self, request) -> tuple[int, bytes]:
        try:
            with self._opener.open(request, timeout=self.timeout) as resp:
                status, headers, body = resp.status, resp.headers, resp.read()
        except self._http_error as err:  # a status urllib calls an error is still an answer
            with err:
                status, headers, body = err.code, err.headers, err.read()
        if headers is not None and headers.get("Content-Encoding", "").strip().lower() == "gzip":
            body = gzip.decompress(body)
        return status, body
