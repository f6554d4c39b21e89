"""Annotator backends behind a minimal complete(prompt) -> text interface.

Each LLM provider is an opaque annotator: it gets a prompt and returns
response text. HttpProvider adapts the common chat-completions JSON API;
MockProvider serves canned responses for tests and offline pipelines and
counts its in-flight calls so concurrency limits are observable.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

from .storage import read_json


def __getattr__(name):
    # Importing requests takes ~0.1 s and only HttpProvider.complete needs
    # it, so it loads on first use; this keeps ``providers.requests`` valid.
    if name != "requests":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module("requests")


class ProviderError(RuntimeError):
    """Base class for provider failures."""


class CredentialError(ProviderError):
    """The provider's credential is missing or unusable; fail before the batch."""


class ProviderRequestError(ProviderError):
    """A single completion request failed (network, HTTP, or bad payload)."""


class ProviderRejectedError(ProviderRequestError):
    """The endpoint refused the request itself (HTTP 4xx but 429): retrying cannot help."""


@dataclass(frozen=True)
class ProviderSpec:
    """Configuration for one HTTP provider.

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

    def __post_init__(self):
        if not self.provider_id.strip():
            raise ValueError("provider_id must be non-empty")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")

    @property
    def credential_env_var(self) -> str:
        if self.credential_ref:
            return self.credential_ref
        slug = self.provider_id.upper().replace("-", "_").replace(".", "_")
        return f"LLME_{slug}_API_KEY"


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


class HttpProvider(Provider):
    """Adapter for OpenAI-style chat-completion endpoints."""

    def __init__(self, spec: ProviderSpec):
        self.spec = spec
        self.provider_id = spec.provider_id
        self.max_retries = spec.max_retries

    def preflight(self) -> None:
        if not os.environ.get(self.spec.credential_env_var, "").strip():
            raise CredentialError(
                f"provider {self.provider_id!r}: environment variable "
                f"{self.spec.credential_env_var} is not set"
            )

    def complete(self, prompt: str) -> str:
        import requests

        api_key = os.environ.get(self.spec.credential_env_var, "").strip()
        if not api_key:
            raise CredentialError(
                f"provider {self.provider_id!r}: missing credential "
                f"{self.spec.credential_env_var}"
            )
        body = {
            "model": self.spec.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
        }
        body.update(self.spec.request_options)
        try:
            response = requests.post(
                self.spec.endpoint,
                headers={
                    "Authorization": f"Bearer {api_key}",
                    "Content-Type": "application/json",
                },
                json=body,
                timeout=self.spec.timeout,
            )
        except requests.RequestException as exc:
            raise ProviderRequestError(
                f"provider {self.provider_id!r}: request failed: {exc}"
            ) from exc
        if response.status_code != 200:
            rejected = 400 <= response.status_code < 500 and response.status_code != 429
            raise (ProviderRejectedError if rejected else ProviderRequestError)(
                f"provider {self.provider_id!r}: HTTP {response.status_code}"
            )
        try:
            payload = response.json()
            return payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderRequestError(
                f"provider {self.provider_id!r}: unexpected response shape"
            ) from exc


class MockProvider(Provider):
    """Deterministic in-process provider for tests and offline runs.

    ``responses`` maps a prompt substring to the canned response; the
    first matching key (insertion order) wins, falling back to
    ``default_response``. ``fail_times`` makes the first N calls raise,
    exercising retry paths. The provider counts concurrent calls so a
    test can assert the engine's in-flight cap.
    """

    def __init__(
        self,
        provider_id: str,
        responses: Mapping[str, str] | None = None,
        default_response: str | None = None,
        fail_times: int = 0,
        delay: float = 0.0,
        max_retries: int = 3,
        concurrency_safe: bool = True,
    ):
        self.provider_id = provider_id
        self.responses = dict(responses or {})
        self.default_response = default_response
        self.fail_times = fail_times
        self.delay = delay
        self.max_retries = max_retries
        self.concurrency_safe = concurrency_safe
        self.calls = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        with self._lock:
            self.calls += 1
            call_number = self.calls
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            if self.delay:
                time.sleep(self.delay)
            if call_number <= self.fail_times:
                raise ProviderRequestError(
                    f"provider {self.provider_id!r}: scripted failure"
                )
            for needle, response in self.responses.items():
                if needle in prompt:
                    return response
            if self.default_response is None:
                raise ProviderRequestError(
                    f"provider {self.provider_id!r}: no canned response matches"
                )
            return self.default_response
        finally:
            with self._lock:
                self.in_flight -= 1


def make_provider(config: Mapping[str, object]) -> Provider:
    """Build one provider from a parsed JSON object (see docs/formats.md)."""
    if not isinstance(config, dict):
        raise ValueError("provider config must be a JSON object")
    kind = config.get("kind", "http")
    options = {k: v for k, v in config.items() if k != "kind"}
    try:
        if kind == "http":
            return HttpProvider(ProviderSpec(**options))
        if kind == "mock":
            return MockProvider(**options)
    except TypeError as exc:
        raise ValueError(f"invalid {kind} provider config: {exc}") from exc
    raise ValueError(f"unknown provider kind {kind!r}")


def load_providers(path) -> list[Provider]:
    """Read a providers file: a JSON array of provider objects."""
    configs = read_json(path)
    if not isinstance(configs, list) or not configs:
        raise ValueError(f"{path}: expected a non-empty JSON array of providers")
    try:
        providers = [make_provider(c) for c in configs]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    ids = [p.provider_id for p in providers]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate provider ids")
    return providers
