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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib.resources import files
from threading import Lock
from typing import Mapping, Sequence

from .core import (
    AnnotationRecord, AttributeSchema, ExtendedLabel, ProductText, _canon, encode_label
)
from .providers import Provider, ProviderError

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


def _complete_with_retries(
    provider: Provider, prompt: str, lock: Lock | None, retry_backoff: float
) -> str | None:
    for attempt in range(1, provider.max_retries + 1):
        try:
            if lock is not None:
                with lock:
                    return provider.complete(prompt)
            return provider.complete(prompt)
        except ProviderError as exc:
            if attempt == provider.max_retries:
                logger.warning(
                    "provider %s: giving up after %d attempt(s): %s",
                    provider.provider_id, attempt, exc,
                )
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

    Requests run concurrently, never more than ``max_in_flight`` at once;
    providers that declare themselves not concurrency-safe are serialized
    individually. Providers failing their preflight (bad credentials) are
    dropped before the batch. A request that still fails after the
    provider's retry budget, or returns only whitespace, produces no
    record; the aggregation sees a missing entry there. Output order is
    (provider-major, product-minor) regardless of completion order.
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
    locks: dict[str, Lock] = {
        p.provider_id: Lock() for p in live if not p.concurrency_safe
    }
    results: dict[tuple[int, int], str] = {}
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        futures = {}
        for pi, provider in enumerate(live):
            for pj, prompt in enumerate(prompts):
                future = pool.submit(
                    _complete_with_retries,
                    provider,
                    prompt,
                    locks.get(provider.provider_id),
                    retry_backoff,
                )
                futures[future] = (pi, pj)
        for future, key in futures.items():
            response = future.result()
            if response is not None and response.strip():
                results[key] = response

    records = []
    for pi, provider in enumerate(live):
        for pj, product in enumerate(products):
            response = results.get((pi, pj))
            if response is None:
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
