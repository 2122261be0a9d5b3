"""The broker's HTTP client (urllib, stdlib-only).

One class, one method per endpoint, mirroring the :class:`~repro.serve.
broker.Broker` call surface exactly — ``run_worker`` and the tests
duck-type between a ``BrokerClient`` (over HTTP) and a ``Broker``
(in-process) because the signatures match.  Transport failures and
broker-side rejections both surface as :class:`~repro.errors.
ServiceError` with the broker's one-line message attached.
"""

from __future__ import annotations

import base64
import http.client
import json
import urllib.error
import urllib.request
from collections.abc import Mapping
from typing import Any

from ..errors import ServiceError

__all__ = ["BrokerClient"]


class BrokerClient:
    """Talks to one broker URL (e.g. ``http://127.0.0.1:8742``)."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = float(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BrokerClient({self.url!r})"

    def _request(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        timeout: float | None = None,
    ) -> Any:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            ) as response:
                return json.loads(response.read().decode() or "null")
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode()).get("error", "")
            except (ValueError, AttributeError):
                detail = ""
            finally:
                exc.close()
            raise ServiceError(
                f"broker rejected {method} {path}: HTTP {exc.code} {detail}".rstrip()
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(f"cannot reach broker at {self.url}: {exc.reason}") from None
        except (http.client.HTTPException, OSError) as exc:
            # A connection dropped or timed out mid-reply: urllib lets
            # these out bare (``RemoteDisconnected``, ``TimeoutError``).
            raise ServiceError(
                f"cannot reach broker at {self.url}: {type(exc).__name__}: {exc}"
            ) from None

    # -- the broker surface (signature-identical to Broker) -----------------

    def health(self) -> bool:
        return bool(self._request("GET", "/api/v1/health").get("ok"))

    def submit(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        return self._request("POST", "/api/v1/studies", payload)

    def status(
        self, job_id: str, wait: float | None = None, done: int | None = None
    ) -> dict[str, Any]:
        """Job status; ``wait``/``done`` long-poll for progress (the
        server holds the request until the finished count moves past
        ``done`` or ``wait`` seconds pass)."""
        query = ""
        if wait is not None:
            query = f"?wait={wait:g}&done={-1 if done is None else done}"
        timeout = None if wait is None else self.timeout + wait
        return self._request("GET", f"/api/v1/studies/{job_id}{query}", timeout=timeout)

    def lease(self, worker: str, wait: float | None = None) -> dict[str, Any] | None:
        """A cell lease or ``None``; ``wait`` parks up to that many
        seconds at the broker for a cell to arrive."""
        wait = wait or 0.0
        return self._request(
            "POST",
            "/api/v1/lease",
            {"worker": worker, "wait": wait},
            timeout=self.timeout + wait,
        )

    def heartbeat(self, lease_id: str) -> bool:
        return bool(self._request("POST", "/api/v1/heartbeat", {"lease_id": lease_id}).get("ok"))

    def complete(
        self,
        job_id: str,
        cell: int,
        manifest_text: str,
        npz_bytes: bytes,
        lease_id: str | None = None,
        worker: str | None = None,
    ) -> dict[str, Any]:
        return self._request(
            "POST",
            "/api/v1/complete",
            {
                "job_id": job_id,
                "cell": cell,
                "manifest_text": manifest_text,
                "npz_b64": base64.b64encode(npz_bytes).decode(),
                "lease_id": lease_id,
                "worker": worker,
            },
        )

    def fail(self, lease_id: str, error: str) -> dict[str, Any]:
        return self._request("POST", "/api/v1/fail", {"lease_id": lease_id, "error": error})

    def result(self, job_id: str, cell: int) -> tuple[str, bytes]:
        payload = self._request("GET", f"/api/v1/studies/{job_id}/cells/{cell}/result")
        return payload["manifest_text"], base64.b64decode(payload["npz_b64"])
