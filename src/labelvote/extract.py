"""Turn product text into annotation records by querying label providers.

Each (provider, product) pair becomes at most one annotation record.
Parsing a response down to a vocabulary label is strict by design:
whitespace, quotes, and terminal punctuation are stripped and an
optional synonym map is applied, but we never search for label words
inside sentences. A response that resolves is recorded as the schema's
label name; one that does not keeps its raw text, which aggregation
reads as a missing entry, and the weighted vote downstream is built to
tolerate missingness.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from heapq import heappop, heappush
from importlib.resources import files
from queue import Empty, SimpleQueue
from typing import Mapping, Sequence

from .jsonl import _canon, _check_fields, _rules
from .providers import Provider, ProviderError, ProviderRejectedError
from .storage import AnnotationRecord, AttributeSchema, ExtendedLabel, ProductText, encode_label

logger = logging.getLogger(__name__)
_MAX_IN_FLIGHT = _rules(max_in_flight="an integer >= 1")

_PLACEHOLDERS = ("{title}", "{description}", "{attribute}", "{labels}")
_QUOTE_CHARS = "\"'`“”‘’"
_TERMINAL_PUNCTUATION = ".,!?;:"
RETRY_BACKOFF_S = 0.5  # wait before a second attempt, doubling for each later one


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


def _normalize(text: str) -> str:
    """Strip whitespace, surrounding quotes and terminal punctuation; case-fold."""
    while text:
        peeled = text.strip().strip(_QUOTE_CHARS).rstrip(_TERMINAL_PUNCTUATION)
        if peeled == text:
            break
        text = peeled
    return _canon(text)


def default_template() -> PromptTemplate:
    text = files("labelvote.data").joinpath("default_prompt.txt").read_text("utf-8")
    return PromptTemplate(text)


@dataclass(frozen=True)
class SynonymMap:
    """Surface-form to canonical-label rewrites applied before encoding.

    Keys are normalized at construction as :func:`parse_response` normalizes
    a response, and must stay distinct and non-blank. Every target must be
    a label of ``schema``, so that a typo in a target fails loudly instead
    of silently dropping annotations.
    """

    mapping: Mapping[str, str]

    def __init__(self, mapping: Mapping[str, str], schema: AttributeSchema):
        _check_fields({"synonyms": mapping}, _rules(synonyms="an object of string pairs"))
        surfaces: dict[str, str] = {}  # normalized key -> the key as given
        for surface, target in mapping.items():
            if encode_label(schema, target) == 0:
                raise ValueError(
                    f"synonym {surface!r} -> {target!r}: target is not a schema label"
                )
            key = _normalize(surface)  # as a response is normalized before the lookup
            if not key:  # peeled punctuation would resolve to its target
                raise ValueError(f"synonym {surface!r} -> {target!r}: key is blank after trimming")
            first = surfaces.setdefault(key, surface)
            if first != surface:
                raise ValueError(f"synonyms {first!r} and {surface!r} are the same key "
                                 "after trimming and case-folding")
        object.__setattr__(self, "mapping", {k: mapping[s] for k, s in surfaces.items()})

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
    text = _normalize(raw)
    if synonyms is not None:
        text = synonyms.canonical(text)
    return encode_label(schema, text)


def extract_labels(
    products: Sequence[ProductText],
    schema: AttributeSchema,
    providers: Sequence[Provider],
    template: PromptTemplate | None = None,
    synonyms: SynonymMap | None = None,
    max_in_flight: int = 4,
) -> list[AnnotationRecord]:
    """Query every provider about every product and collect the records.

    One pool of ``max_in_flight`` threads runs every ``complete()`` call,
    one attempt per task, so the cap holds across all providers together.
    A provider has ``max_in_flight`` lanes, or one if it is not
    concurrency-safe. Whenever a slot is free, the calling thread sends a
    ready request of the provider with the most queued requests per lane,
    the first listed on a tie. A send shortens its own queue, so no
    provider keeps the cap to itself and none straggles alone at the end.
    A failed attempt waits out its backoff on a heap, holding no slot and
    no thread. Providers failing their preflight (bad credentials) are
    dropped before the batch. A request that fails past its retry budget
    or with ``ProviderRejectedError``, raises a non-``ProviderError`` or
    returns a non-string (logged, not retried), or returns only whitespace
    produces no record; aggregation sees a missing entry there. A record
    holds the schema label its response resolves to, else the response
    text. Output order is (provider-major, product-minor) regardless of
    completion order.
    """
    if not products:
        raise ValueError("at least one product is required")
    if not providers:
        raise ValueError("at least one provider is required")
    _check_fields({"max_in_flight": max_in_flight}, _MAX_IN_FLIGHT)
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
    n = len(prompts)
    results: list[list[str | None]] = [[None] * n for _ in live]
    lanes = [max_in_flight if p.concurrency_safe else 1 for p in live]
    ready = [deque((j, 1) for j in range(n)) for _ in live]  # (product, attempt) for a slot
    running = [0] * len(live)
    backoffs: list[tuple[float, int, int, int]] = []  # (due, provider, product, attempt)
    tasks: dict[Future, tuple[int, int, int]] = {}
    finished: SimpleQueue[Future] = SimpleQueue()
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        while tasks or backoffs or any(ready):
            now = time.monotonic()
            while backoffs and backoffs[0][0] <= now:
                _, k, j, attempt = heappop(backoffs)
                ready[k].appendleft((j, attempt))
            while len(tasks) < max_in_flight:
                eligible = [k for k in range(len(live)) if ready[k] and running[k] < lanes[k]]
                if not eligible:
                    break
                k = max(eligible, key=lambda i: len(ready[i]) / lanes[i])  # first on a tie
                j, attempt = ready[k].popleft()
                running[k] += 1
                future = pool.submit(live[k].complete, prompts[j])
                tasks[future] = k, j, attempt
                future.add_done_callback(finished.put)
            try:
                future = finished.get(timeout=backoffs[0][0] - now if backoffs else None)
            except Empty:  # a backoff came due
                continue
            k, j, attempt = tasks.pop(future)
            running[k] -= 1
            provider = live[k]
            try:
                response = future.result()
                if not isinstance(response, str):
                    raise TypeError(f"complete() returned {type(response).__name__}, not str")
                results[k][j] = response
            except ProviderError as exc:
                if attempt < provider.max_retries and not isinstance(exc, ProviderRejectedError):
                    due = time.monotonic() + RETRY_BACKOFF_S * 2 ** (attempt - 1)
                    heappush(backoffs, (due, k, j, attempt + 1))
                    continue
                logger.warning(
                    "provider %s: giving up after %d attempt(s): %s",
                    provider.provider_id, attempt, exc,
                )
            except Exception:  # a provider bug costs this request, not the batch
                logger.warning("provider %s: unexpected error, not retried",
                               provider.provider_id, exc_info=True)

    records = []
    for provider, responses in zip(live, results):
        for product, response in zip(products, responses):
            if response is None or not response.strip():
                continue
            label = parse_response(response, schema, synonyms)
            if label == 0:
                logger.info(
                    "provider %s on item %s: response %r does not resolve to a label",
                    provider.provider_id, product.item_id, response,
                )
            records.append(
                AnnotationRecord(
                    annotator_id=provider.provider_id,
                    item_id=product.item_id,
                    attribute=schema.attribute_name,
                    raw_label=schema.labels[label - 1] if label else response,
                )
            )
    return records
