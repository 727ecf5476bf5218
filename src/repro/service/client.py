"""Blocking HTTP client for the service (tests, smoke, load generator).

Only the *server* side is hand-rolled; the client rides
:mod:`http.client` from the stdlib. One :class:`ServiceClient` wraps one
keep-alive connection and is **not** thread-safe — give each thread its
own client (the load generator does exactly that).

Error model: any problem-JSON response raises :class:`ServiceClientError`
carrying the parsed problem document, so test assertions can look at
``exc.status`` / ``exc.problem["detail"]`` instead of string-matching.

Resilience: pass a :class:`RetryPolicy` to retry transient failures —
503 (saturated admission queue, injected fault, backend I/O hiccup) and
504 (request timeout) — with capped exponential backoff and seeded
jitter. The server stamps ``Retry-After`` on those statuses; the client
honors it as a floor under its own backoff. Every retry bumps the
``service.client.retries`` counter.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union
from urllib.parse import quote, urlencode

from repro import telemetry
from repro.errors import ReproError

#: statuses worth retrying: both are transient by the server's contract
#: (saturation clears, faults/I/O errors are resumable, timeouts pass)
RETRYABLE_STATUSES = (503, 504)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with capped exponential backoff and seeded jitter.

    ``attempts`` counts *total* tries, so ``attempts=4`` means one
    initial request plus at most three retries. The delay before retry
    *n* (1-based) is ``min(max_delay, base_delay * multiplier**(n-1))``,
    spread by ``jitter`` (a ±fraction, drawn from a :class:`random.Random`
    seeded per client — deterministic in tests, decorrelated across the
    load generator's worker threads), then floored by any ``Retry-After``
    the server sent.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    statuses: tuple[int, ...] = RETRYABLE_STATUSES

    def backoff(self, retry_number: int, rng: random.Random) -> float:
        """Jittered delay before retry ``retry_number`` (1-based)."""
        if retry_number < 1:
            raise ValueError(f"retry_number must be >= 1, got {retry_number}")
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** (retry_number - 1)
        )
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


def _retry_after_seconds(headers: dict[str, str]) -> float:
    """Parse a ``Retry-After`` header; 0 when absent or not delta-seconds."""
    raw = headers.get("retry-after", "").strip()
    try:
        return max(0.0, float(raw))
    except ValueError:
        return 0.0  # HTTP-date form (or garbage): fall back to backoff only


class ServiceClientError(ReproError):
    """An error response (or transport failure) from the service."""

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        problem: Optional[dict[str, Any]] = None,
    ):
        super().__init__(message)
        self.status = status
        self.problem = problem or {}


class ServiceClient:
    """Minimal blocking client over one keep-alive connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        #: retries performed over this client's lifetime
        self.retries = 0
        self._sleep = sleep
        self._rng = random.Random(retry.seed if retry is not None else 0)
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    # -- transport -------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        params: Optional[dict[str, Any]] = None,
        body: Optional[bytes] = None,
        headers: Optional[dict[str, str]] = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One round trip; returns ``(status, headers, body)`` raw.

        Retries exactly once on a dropped connection — the server
        closes keep-alive sockets on shutdown and on protocol errors,
        and ``http.client`` surfaces that as ``BadStatusLine`` or a
        connection reset on the *next* request.
        """
        target = quote(path)
        if params:
            target += "?" + urlencode(
                {key: value for key, value in params.items() if value is not None}
            )
        for attempt in (1, 2):
            try:
                self._conn.request(method, target, body=body, headers=headers or {})
                response = self._conn.getresponse()
                data = response.read()
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self._conn.close()
                if attempt == 2:
                    raise ServiceClientError(
                        f"{method} {target} failed: {type(exc).__name__}: {exc}"
                    ) from exc
                continue
            return (
                response.status,
                {name.lower(): value for name, value in response.getheaders()},
                data,
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def request_json(
        self,
        method: str,
        path: str,
        params: Optional[dict[str, Any]] = None,
        body: Optional[bytes] = None,
        headers: Optional[dict[str, str]] = None,
    ) -> dict[str, Any]:
        """A round trip that decodes JSON and raises on error statuses.

        With a :class:`RetryPolicy` attached, transient statuses (the
        policy's ``statuses``; 503/504 by default) are retried up to
        ``attempts`` total tries. The wait before each retry is the
        policy's jittered backoff or the server's ``Retry-After``,
        whichever is larger.
        """
        policy = self.retry
        attempts = policy.attempts if policy is not None else 1
        for attempt in range(1, attempts + 1):
            status, response_headers, data = self.request(
                method, path, params=params, body=body, headers=headers
            )
            if (
                policy is None
                or attempt == attempts
                or status not in policy.statuses
            ):
                break
            wait = max(
                policy.backoff(attempt, self._rng),
                _retry_after_seconds(response_headers),
            )
            self.retries += 1
            telemetry.count("service.client.retries")
            telemetry.count(f"service.client.retries.{status}")
            self._sleep(wait)
        content_type = response_headers.get("content-type", "")
        payload: Any = None
        if "json" in content_type and data:
            payload = json.loads(data.decode("utf-8"))
        if status >= 400:
            problem = payload if isinstance(payload, dict) else {}
            detail = problem.get("detail") or data.decode("utf-8", "replace")
            raise ServiceClientError(
                f"{method} {path} -> {status}: {detail}",
                status=status,
                problem=problem,
            )
        if not isinstance(payload, dict):
            raise ServiceClientError(
                f"{method} {path} -> {status}: expected a JSON object body, "
                f"got {content_type!r}"
            )
        return payload

    # -- endpoints -------------------------------------------------------

    def ingest(
        self,
        xml: Union[str, bytes],
        doc_id: Optional[str] = None,
        algorithm: Optional[str] = None,
        limit: Optional[int] = None,
        journal: bool = False,
        resume: bool = False,
    ) -> dict[str, Any]:
        body = xml.encode("utf-8") if isinstance(xml, str) else xml
        params: dict[str, Any] = {
            "id": doc_id,
            "algorithm": algorithm,
            "limit": limit,
        }
        if journal:
            params["journal"] = "1"
        if resume:
            params["resume"] = "1"
        return self.request_json(
            "POST",
            "/documents",
            params=params,
            body=body,
            headers={"content-type": "application/xml"},
        )

    def query(
        self, doc_id: str, xpath: str, show: int = 0
    ) -> dict[str, Any]:
        params: dict[str, Any] = {"xpath": xpath}
        if show:
            params["show"] = show
        return self.request_json(
            "GET", f"/documents/{doc_id}/query", params=params
        )

    def documents(self) -> list[dict[str, Any]]:
        return self.request_json("GET", "/documents")["documents"]

    def document(self, doc_id: str) -> dict[str, Any]:
        return self.request_json("GET", f"/documents/{doc_id}")

    def delete(self, doc_id: str) -> dict[str, Any]:
        return self.request_json("DELETE", f"/documents/{doc_id}")

    def healthz(self) -> dict[str, Any]:
        return self.request_json("GET", "/healthz")

    def metrics_json(self) -> dict[str, Any]:
        return self.request_json("GET", "/metrics", params={"format": "json"})

    def metrics_text(self) -> str:
        status, _headers, data = self.request(
            "GET", "/metrics", params={"format": "prom"}
        )
        if status != 200:
            raise ServiceClientError(
                f"GET /metrics -> {status}", status=status
            )
        return data.decode("utf-8")

    def debug_traces(self) -> dict[str, Any]:
        return self.request_json("GET", "/debug/traces")

    def debug_trace(self, trace_id: str, chrome: bool = False) -> dict[str, Any]:
        """One sampled trace; ``chrome=True`` fetches the Chrome-trace
        JSON payload (round-trips through
        :func:`repro.obsv.chrometrace.load_chrome_trace`)."""
        params = {"format": "chrome"} if chrome else None
        return self.request_json(
            "GET", f"/debug/traces/{trace_id}", params=params
        )

    def debug_slow(self) -> dict[str, Any]:
        return self.request_json("GET", "/debug/slow")

    def debug_heat(
        self, top: Optional[int] = None, edges: bool = False
    ) -> dict[str, Any]:
        params: dict[str, Any] = {"top": top}
        if edges:
            params["edges"] = "1"
        return self.request_json("GET", "/debug/heat", params=params)
