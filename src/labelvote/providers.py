"""Annotator backends behind a minimal complete(prompt) -> text interface.

Each LLM provider is an opaque annotator: it gets a prompt and returns
response text. HttpProvider adapts the common chat-completions JSON API;
MockProvider serves canned responses for tests and offline pipelines.
Both constructors check every option, so a bad providers.json entry fails
at load; ``urllib.request`` is imported by the first HTTP request.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping
from urllib.parse import urlsplit

from .jsonl import _check_object, _rules
from .storage import _Checked, _entries, read_json

MAX_WAIT_S = 86_400  # one day; sleeps and socket timeouts overflow from about 1e10 s
# Printable ASCII after the scheme: http.client refuses \x00-\x20 and \x7f in a URL.
_URL = re.compile(r"https?://[!-~]*", re.IGNORECASE)


class ProviderError(RuntimeError):
    """Base class for provider failures."""


class CredentialError(ProviderError):
    """The provider's credential is missing or unusable; fail before the batch."""


class ProviderRequestError(ProviderError):
    """A single completion request failed (network, HTTP, or bad payload)."""


class ProviderRejectedError(ProviderRequestError):
    """The endpoint refused the request itself (HTTP 3xx, 4xx but 429): retrying cannot help."""


class Provider:
    """One label source. Subclasses implement complete()."""

    provider_id: str
    max_retries: int = 3
    # Providers that cannot take overlapping complete() calls set this
    # False and the extraction engine serializes them.
    concurrency_safe: bool = True

    def preflight(self) -> None:
        """Cheap viability check run once before a batch; raise to opt out."""

    def complete(self, prompt: str) -> str:
        raise NotImplementedError


# eq=False: instances compare and hash by identity, as request_options is a dict.
@dataclass(frozen=True, eq=False)
class HttpProvider(_Checked, Provider):
    """Adapter for OpenAI-style chat-completion endpoints.

    ``credential_ref`` names the environment variable holding the API
    key; when empty it defaults to the LLME_<PROVIDER>_API_KEY
    convention. Secrets never appear in config files. ``request_options``
    is merged into the request body; decoding defaults to temperature 0
    because vote stability matters more than diversity here.
    """

    provider_id: str
    endpoint: str
    model_name: str
    timeout: float = 30.0
    max_retries: int = 3
    credential_ref: str = ""
    request_options: Mapping[str, object] = field(default_factory=dict)
    _RULES = _rules(
        provider_id="a non-empty string", endpoint="a non-empty string",
        model_name="a non-empty string", timeout=f"a number > 0 and <= {MAX_WAIT_S}",
        max_retries="an integer >= 1", credential_ref="a string", request_options="an object",
    )

    def __post_init__(self):
        super().__post_init__()
        if not _URL.fullmatch(self.endpoint) or not urlsplit(self.endpoint).hostname:
            raise ValueError("field 'endpoint' must be an http:// or https:// URL in ASCII, "
                             "with no spaces or control characters, naming a host")
        if {"messages", "model"} & self.request_options.keys():
            raise ValueError("field 'request_options' must not set 'messages' or 'model'")
        try:
            json.dumps(dict(self.request_options), allow_nan=False)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field 'request_options' must be plain JSON: {exc}") from exc

    @property
    def credential_env_var(self) -> str:
        if self.credential_ref:
            return self.credential_ref
        slug = self.provider_id.upper().replace("-", "_").replace(".", "_")
        return f"LLME_{slug}_API_KEY"

    def preflight(self) -> None:
        if not os.environ.get(self.credential_env_var, "").strip():
            raise CredentialError(
                f"provider {self.provider_id!r}: environment variable "
                f"{self.credential_env_var} is not set"
            )

    def complete(self, prompt: str) -> str:
        from http.client import HTTPException
        from urllib.error import HTTPError
        from urllib.request import HTTPRedirectHandler, Request, build_opener

        class HttpRedirects(HTTPRedirectHandler):  # the default one follows ftp:// too
            def redirect_request(self, req, fp, code, msg, headers, newurl):
                if newurl.lower().startswith(("http://", "https://")):
                    return super().redirect_request(req, fp, code, msg, headers, newurl)

        api_key = os.environ.get(self.credential_env_var, "").strip()
        if not api_key:
            raise CredentialError(
                f"provider {self.provider_id!r}: missing credential {self.credential_env_var}"
            )
        body = {
            "model": self.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
        }
        body.update(self.request_options)
        data = json.dumps(body, allow_nan=False).encode()
        request = Request(self.endpoint, data, {"Content-Type": "application/json"})
        # Unredirected: a plain header would follow a redirect to any host.
        request.add_unredirected_header("Authorization", f"Bearer {api_key}")
        try:
            # A new opener per request reads the proxy variables as they are now.
            with build_opener(HttpRedirects).open(request, timeout=self.timeout) as response:
                status, reply = response.status, response.read()
        except HTTPError as exc:
            exc.close()
            status = exc.code
        except (OSError, HTTPException) as exc:
            message = f"provider {self.provider_id!r}: request failed: {exc}"
            raise ProviderRequestError(message) from exc
        if status != 200:
            rejected = 300 <= status < 500 and status != 429
            raise (ProviderRejectedError if rejected else ProviderRequestError)(
                f"provider {self.provider_id!r}: HTTP {status}"
            )
        try:
            return json.loads(reply)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderRequestError(
                f"provider {self.provider_id!r}: unexpected response shape"
            ) from exc


# eq=False: instances compare and hash by identity, as responses is a dict.
@dataclass(eq=False)
class MockProvider(_Checked, Provider):
    """Deterministic in-process provider for tests and offline runs.

    ``responses`` maps a prompt substring to the canned response; the
    first matching key (insertion order) wins, falling back to
    ``default_response``. ``fail_times`` makes the first N calls raise,
    exercising retry paths.
    """

    provider_id: str
    responses: Mapping[str, str] | None = None
    default_response: str | None = None
    fail_times: int = 0
    delay: float = 0.0
    max_retries: int = 3
    concurrency_safe: bool = True
    calls: int = field(default=0, init=False)
    _RULES = _rules(
        provider_id="a non-empty string", responses="an object of string pairs",
        default_response="a string or null", fail_times="an integer >= 0",
        delay=f"a number >= 0 and <= {MAX_WAIT_S}", max_retries="an integer >= 1",
        concurrency_safe="a boolean",
    )

    def __post_init__(self):
        self.responses = {} if self.responses is None else self.responses
        super().__post_init__()
        self.responses = dict(self.responses)
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        with self._lock:
            self.calls += 1
            call_number = self.calls
        if self.delay:
            time.sleep(self.delay)
        if call_number <= self.fail_times:
            raise ProviderRequestError(f"provider {self.provider_id!r}: scripted failure")
        for needle, response in self.responses.items():
            if needle in prompt:
                return response
        if self.default_response is None:
            raise ProviderRequestError(
                f"provider {self.provider_id!r}: no canned response matches"
            )
        return self.default_response


def make_provider(config: Mapping[str, object]) -> Provider:
    """Build one provider from a parsed JSON object (see docs/formats.md)."""
    if not isinstance(config, dict):
        raise ValueError("provider config must be a JSON object")
    kind = config.get("kind", "http")
    if kind not in ("http", "mock"):
        raise ValueError(f"unknown provider kind {kind!r}")
    options = {k: v for k, v in config.items() if k != "kind"}
    cls = HttpProvider if kind == "http" else MockProvider
    try:
        _check_object(options, cls._required(), cls._RULES)  # a rule per constructor argument
    except ValueError as exc:
        raise ValueError(f"invalid {kind} provider config: {exc}") from exc
    return cls(**options)


def load_providers(path) -> list[Provider]:
    """Read a providers file: a JSON array of provider objects."""
    return read_json(path, lambda configs: _entries(configs, make_provider, "provider"))
