"""In-process HTTP stubs the pipeline talks to: literature search and completions.

Both bind to 127.0.0.1 on a free port and serve from a fixed pool of handler
threads (at most the number of usable CPUs), so the load they can absorb is
bounded like a small real server's.
"""

from __future__ import annotations

import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

_SAMPLE_RE = re.compile(r"Sample set (\d+) was analysed")


class _PooledServer(HTTPServer):
    """HTTPServer whose requests run on a bounded thread pool."""

    request_queue_size = 16

    def __init__(self, handler, threads: int):
        super().__init__(("127.0.0.1", 0), handler)
        self._pool = ThreadPoolExecutor(max_workers=threads, thread_name_prefix="stub")

    def process_request(self, request, client_address):
        self._pool.submit(self._serve, request, client_address)

    def server_close(self):
        super().server_close()
        self._pool.shutdown(wait=True)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:  # noqa: BLE001 - a broken client connection must not stop the stub
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


class _Stub:
    path = "/"

    def __init__(self, threads: int):
        self.server = _PooledServer(self._handler(), threads)
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}{self.path}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)

    def _handler(stub):
        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                stub.get(self)

            def do_POST(self):
                stub.post(self)

        return Handler

    @staticmethod
    def reply(handler, status: int, body: bytes) -> None:
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)


class SearchStub(_Stub):
    """Cursor-paginated search endpoint in the Europe PMC response shape.

    The cursor is an opaque token naming the next offset; the last page
    repeats its own cursor, which is how the provider signals the end.
    """

    path = "/search"

    def __init__(self, records: list[dict], threads: int):
        self.records = records
        super().__init__(threads)

    def get(self, handler) -> None:
        params = {k: v[0] for k, v in parse_qs(urlparse(handler.path).query).items()}
        size = int(params.get("pageSize", "1000"))
        cursor = params.get("cursorMark", "*")
        offset = 0 if cursor == "*" else int(cursor.removeprefix("AoE"), 16)
        chunk = self.records[offset : offset + size]
        end = offset + len(chunk)
        body = {
            "version": "6.9",
            "hitCount": len(self.records),
            "nextCursorMark": f"AoE{end:x}" if end < len(self.records) else cursor,
            "request": {"cursorMark": cursor, "pageSize": size},
            "resultList": {"result": chunk},
        }
        self.reply(handler, 200, json.dumps(body).encode("utf-8"))


class CompletionStub(_Stub):
    """Completions endpoint answering each prompt with its abstract's response.

    The abstract is recognised by the sample-set sentence every generated
    abstract opens with. Each answer waits the abstract's seeded latency;
    abstracts in `refused` get one HTTP 400 before they are answered, once
    per `reset`. `slept` is the total of those waits since the last `reset`.
    """

    path = "/v1/completions"

    def __init__(self, responses: dict[int, str], latency_s: dict[int, float],
                 refused: frozenset[int], threads: int):
        self.responses = responses
        self.latency_s = latency_s
        self.slept = 0.0
        self._refused = refused
        self._pending: set[int] = set()
        self._lock = threading.Lock()
        super().__init__(threads)
        self.reset()

    def reset(self, armed: bool = True) -> None:
        """Arm every refusal again, for a fresh cold pass; or disarm them all,
        for a rerun of a cold pass whose refusals were already given."""
        with self._lock:
            self._pending = set(self._refused) if armed else set()
            self.slept = 0.0

    def post(self, handler) -> None:
        length = int(handler.headers.get("Content-Length", "0"))
        payload = json.loads(handler.rfile.read(length))
        match = _SAMPLE_RE.search(payload.get("prompt", ""))
        number = int(match.group(1)) if match else -1
        with self._lock:
            refuse = number in self._pending
            self._pending.discard(number)
        if number not in self.responses:
            self.reply(handler, 404, b'{"error": "unknown prompt"}')
            return
        if refuse:
            self.reply(handler, 400, b'{"error": "content policy refusal"}')
            return
        wait = self.latency_s.get(number, 0.0)
        time.sleep(wait)
        with self._lock:
            self.slept += wait
        text = self.responses[number]
        body = {
            "id": f"cmpl-{number}",
            "object": "text_completion",
            "model": payload.get("model", ""),
            "choices": [
                {
                    "index": 0,
                    "text": text,
                    "finish_reason": "stop",
                }
            ],
            "usage": {"prompt_tokens": len(payload.get("prompt", "")) // 4, "completion_tokens": len(text) // 4},
        }
        self.reply(handler, 200, json.dumps(body).encode("utf-8"))
