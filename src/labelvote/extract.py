"""Turn product text into annotation records by querying label providers.

Each (provider, product) pair becomes at most one annotation record
holding the provider's raw response text. Parsing a response down to a
vocabulary label is strict by design: whitespace, quotes, and terminal
punctuation are stripped and an optional synonym map is applied, but we
never search for label words inside sentences. A response that does not
resolve is a missing entry, and the weighted vote downstream is built to
tolerate missingness.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib.resources import files
from threading import Lock
from typing import Mapping, Sequence

from .core import (
    AnnotationRecord, AttributeSchema, ExtendedLabel, ProductText, _canon, encode_label
)
from .providers import Provider, ProviderError, ProviderRejectedError

logger = logging.getLogger(__name__)

_PLACEHOLDERS = ("{title}", "{description}", "{attribute}", "{labels}")
_QUOTE_CHARS = "\"'`“”‘’"
_TERMINAL_PUNCTUATION = ".,!?;:"


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt text with {title}, {description}, {attribute}, {labels} slots.

    The template is configuration, not code; the packaged default lives
    in data/default_prompt.txt and instructs single-word answers.
    """

    template: str

    def __post_init__(self):
        for placeholder in _PLACEHOLDERS:
            count = self.template.count(placeholder)
            if count != 1:
                raise ValueError(
                    f"template must contain {placeholder} exactly once (found {count})"
                )
        try:
            self.template.format(title="", description="", attribute="", labels="")
        except (KeyError, IndexError, ValueError) as exc:
            raise ValueError(f"template has stray braces or placeholders: {exc}") from exc


def default_template() -> PromptTemplate:
    text = files("labelvote.data").joinpath("default_prompt.txt").read_text("utf-8")
    return PromptTemplate(text)


@dataclass(frozen=True)
class SynonymMap:
    """Surface-form to canonical-label rewrites applied before encoding.

    Keys are normalized (trimmed, case-folded) at construction. Use
    :meth:`validated` when a schema is at hand so that a typo in a target
    label fails loudly instead of silently dropping annotations.
    """

    mapping: Mapping[str, str]

    def __init__(self, mapping: Mapping[str, str]):
        object.__setattr__(self, "mapping", {_canon(k): v for k, v in mapping.items()})

    @classmethod
    def validated(cls, mapping: Mapping[str, str], schema: AttributeSchema) -> "SynonymMap":
        instance = cls(mapping)
        for surface, target in instance.mapping.items():
            if encode_label(schema, target) == 0:
                raise ValueError(
                    f"synonym {surface!r} -> {target!r}: target is not a schema label"
                )
        return instance

    def canonical(self, text: str) -> str:
        return self.mapping.get(text, text)


def render_prompt(
    template: PromptTemplate, product: ProductText, schema: AttributeSchema
) -> str:
    """Fill the template; {labels} becomes the comma-joined vocabulary."""
    return template.template.format(
        title=product.title,
        description=product.description,
        attribute=schema.attribute_name,
        labels=", ".join(schema.labels),
    )


def parse_response(
    raw: str, schema: AttributeSchema, synonyms: SynonymMap | None = None
) -> ExtendedLabel:
    """Resolve a provider response to an encoded label, or 0 when it won't.

    Normalization: strip whitespace, surrounding quotes, and terminal
    punctuation; case-fold; rewrite via the synonym map; then encode.
    No substring search: "The gender is female" stays unresolved.
    """
    text = raw.strip()
    while text:
        peeled = text.strip().strip(_QUOTE_CHARS)
        peeled = peeled.rstrip(_TERMINAL_PUNCTUATION)
        if peeled == text:
            break
        text = peeled
    text = _canon(text)
    if synonyms is not None:
        text = synonyms.canonical(text)
    return encode_label(schema, text)


class _FifoSlots:
    """Counting semaphore whose release hands the slot to the longest waiter.

    With ``threading.Semaphore`` the releasing thread can take the slot
    back before the woken waiter runs, so one provider's lanes could
    keep the cap to themselves.
    """

    def __init__(self, size: int):
        self._lock = Lock()
        self._free = size
        self._waiters: deque[Lock] = deque()

    def __enter__(self) -> None:
        with self._lock:
            if self._free:
                self._free -= 1
                return
            gate = Lock()
            gate.acquire()
            self._waiters.append(gate)
        gate.acquire()  # released by the thread that hands over its slot

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            if self._waiters:
                self._waiters.popleft().release()
            else:
                self._free += 1


def _lane_count(provider: Provider, max_in_flight: int, n_products: int) -> int:
    """Threads that query one provider: one unless it is concurrency-safe."""
    return min(max_in_flight, n_products) if provider.concurrency_safe else 1


def _complete_with_retries(
    provider: Provider, prompt: str, slots: _FifoSlots, retry_backoff: float
) -> str | None:
    for attempt in range(1, provider.max_retries + 1):
        try:
            with slots:
                response = provider.complete(prompt)
            if not isinstance(response, str):
                raise TypeError(f"complete() returned {type(response).__name__}, not str")
            return response
        except ProviderError as exc:
            if attempt == provider.max_retries or isinstance(exc, ProviderRejectedError):
                logger.warning(
                    "provider %s: giving up after %d attempt(s): %s",
                    provider.provider_id, attempt, exc,
                )
                return None
        except Exception:  # a provider bug costs this request, not the batch
            logger.warning("provider %s: unexpected error, not retried",
                           provider.provider_id, exc_info=True)
            return None
        if retry_backoff > 0:
            time.sleep(retry_backoff * 2 ** (attempt - 1))
    return None


def extract_labels(
    products: Sequence[ProductText],
    schema: AttributeSchema,
    providers: Sequence[Provider],
    template: PromptTemplate | None = None,
    synonyms: SynonymMap | None = None,
    max_in_flight: int = 4,
    retry_backoff: float = 0.5,
) -> list[AnnotationRecord]:
    """Query every provider about every product and collect the records.

    ``max_in_flight`` caps the concurrent ``complete()`` calls across all
    providers together. Each provider has its own lanes (threads) pulling
    its next product on demand: up to ``max_in_flight`` of them, but a
    provider that is not concurrency-safe gets one lane, so it holds at
    most one slot. Slots are handed out in the order lanes asked for
    them, so no provider keeps the cap to itself, and a lane sleeping
    through a retry's backoff holds no slot. Providers failing their
    preflight (bad credentials) are dropped before the batch. A request
    that fails past its retry budget or with ``ProviderRejectedError``,
    raises a non-``ProviderError`` or returns a non-string (logged, not
    retried), or returns only whitespace produces no record; aggregation
    sees a missing entry there. Output order is (provider-major,
    product-minor) regardless of completion order.
    """
    if not products:
        raise ValueError("at least one product is required")
    if not providers:
        raise ValueError("at least one provider is required")
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1")
    if template is None:
        template = default_template()

    live: list[Provider] = []
    for provider in providers:
        try:
            provider.preflight()
        except ProviderError as exc:
            logger.warning("provider %s skipped: %s", provider.provider_id, exc)
            continue
        live.append(provider)

    prompts = [render_prompt(template, product, schema) for product in products]
    slots = _FifoSlots(max_in_flight)
    results: list[list[str | None]] = [[None] * len(prompts) for _ in live]

    def run_lane(provider: Provider, pending: deque[int], responses: list) -> None:
        while True:
            try:
                pj = pending.popleft()
            except IndexError:
                return
            responses[pj] = _complete_with_retries(provider, prompts[pj], slots, retry_backoff)

    lanes = [_lane_count(p, max_in_flight, len(prompts)) for p in live]
    with ThreadPoolExecutor(max_workers=max(1, sum(lanes))) as pool:
        futures = []
        for provider, responses, count in zip(live, results, lanes):
            pending = deque(range(len(prompts)))
            futures += [pool.submit(run_lane, provider, pending, responses) for _ in range(count)]
        for future in futures:
            future.result()

    records = []
    for provider, responses in zip(live, results):
        for product, response in zip(products, responses):
            if response is None or not response.strip():
                continue
            if parse_response(response, schema, synonyms) == 0:
                logger.info(
                    "provider %s on item %s: response %r does not resolve to a label",
                    provider.provider_id, product.item_id, response,
                )
            records.append(
                AnnotationRecord(
                    annotator_id=provider.provider_id,
                    item_id=product.item_id,
                    attribute=schema.attribute_name,
                    raw_label=response,
                )
            )
    return records
