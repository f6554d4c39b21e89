"""Prompt rendering, response parsing, and the extraction engine."""

import gzip
import json
import logging
import os
import re
import socket
import subprocess
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urljoin

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from labelvote import (
    AttributeSchema,
    CredentialError,
    HttpProvider,
    MockProvider,
    ProductText,
    PromptTemplate,
    Provider,
    ProviderRejectedError,
    ProviderRequestError,
    SynonymMap,
    default_template,
    extract_labels,
    load_providers,
    make_provider,
    parse_response,
    render_prompt,
)


@pytest.fixture(autouse=True)
def no_retry_backoff(monkeypatch):
    monkeypatch.setattr("labelvote.extract.RETRY_BACKOFF_S", 0.0)


GARANIMALS = ProductText(
    item_id="sku-1",
    title="Garanimals Toddler Girl Short Sleeve Graphic T-Shirt, Sizes 18M-5T",
    description=(
        "Bring an instant smile to her face with this colorful Graphic T-shirt "
        "from Garanimals. Cute and comfortable in a soft knit fabric."
    ),
)


class TestRenderPrompt:
    def test_toddler_shirt_prompt_lists_every_option(self, gender_schema):
        prompt = render_prompt(default_template(), GARANIMALS, gender_schema)
        assert GARANIMALS.title in prompt
        for option in ("male", "female", "unisex"):
            assert option in prompt
        assert "gender" in prompt

    def test_empty_description_leaves_no_residue(self, gender_schema):
        product = ProductText("sku-2", "Socks")
        prompt = render_prompt(default_template(), product, gender_schema)
        assert "{" not in prompt and "}" not in prompt

    def test_label_list_length_matches_schema(self):
        schema = AttributeSchema("size", ["xs", "s", "m", "l", "xl"])
        prompt = render_prompt(default_template(), GARANIMALS, schema)
        assert "xs, s, m, l, xl" in prompt


class TestPromptTemplate:
    def test_missing_placeholder(self):
        with pytest.raises(ValueError, match="labels"):
            PromptTemplate("{title} {description} {attribute}")

    def test_duplicate_placeholder(self):
        with pytest.raises(ValueError):
            PromptTemplate("{title} {title} {description} {attribute} {labels}")

    def test_stray_braces(self):
        with pytest.raises(ValueError):
            PromptTemplate("{title} {description} {attribute} {labels} {extra}")


class TestParseResponse:
    def test_strips_terminal_punctuation(self, gender_schema):
        assert parse_response("Female.", gender_schema) == 2

    def test_strips_quotes(self, gender_schema):
        assert parse_response(' "female" ', gender_schema) == 2
        assert parse_response("'Male'.", gender_schema) == 1

    def test_embedded_text_is_not_guessed(self, gender_schema):
        assert parse_response("The gender is female", gender_schema) == 0

    def test_synonym_path(self, gender_schema):
        synonyms = SynonymMap({"woman": "female"}, gender_schema)
        assert parse_response("woman", gender_schema, synonyms) == 2

    def test_idempotent_through_decode(self, gender_schema):
        synonyms = SynonymMap({"woman": "female"}, gender_schema)
        for raw in ("Female.", '"male"', "woman", "UNISEX!"):
            value = parse_response(raw, gender_schema, synonyms)
            assert value != 0
            name = gender_schema.labels[value - 1]
            assert parse_response(name, gender_schema, synonyms) == value

    def test_unparseable_is_missing(self, gender_schema):
        assert parse_response("   ", gender_schema) == 0
        assert parse_response("no idea", gender_schema) == 0


class TestSynonymMap:
    def test_rejects_target_outside_schema(self, gender_schema):
        with pytest.raises(ValueError, match="woman"):
            SynonymMap({"woman": "lady"}, gender_schema)

    def test_keys_are_normalized(self, gender_schema):
        synonyms = SynonymMap({" Woman ": "female"}, gender_schema)
        assert synonyms.canonical("woman") == "female"

    def test_keys_are_normalized_like_responses(self, gender_schema):
        # A key that keeps its punctuation could never match a peeled response.
        synonyms = SynonymMap({"f.": "female"}, gender_schema)
        for raw in ("f.", "F", '"f"'):
            assert parse_response(raw, gender_schema, synonyms) == 2, raw

    @pytest.mark.parametrize(
        "mapping",
        [{"Woman": "female", "woman ": "male"}, {"woman": "female", " WOMAN": "female"},
         {"f.": "female", "F": "female"}],
        ids=["different targets", "same target", "punctuation"],
    )
    def test_keys_that_normalize_alike_are_rejected(self, gender_schema, mapping):
        # The last key used to win silently; naming both keys points at the typo.
        first, second = mapping
        with pytest.raises(ValueError, match=f"synonyms {first!r} and {second!r} are the same"):
            SynonymMap(mapping, gender_schema)

    @pytest.mark.parametrize("key", ["", "  ", "\t", ".", "?!"],
                             ids=["empty", "spaces", "tab", "period", "punctuation"])
    def test_rejects_blank_key(self, gender_schema, key):
        # A blank key would map the "" that peeling leaves of "." or "?!" to its target.
        with pytest.raises(ValueError) as excinfo:
            SynonymMap({key: "male"}, gender_schema)
        assert str(excinfo.value) == f"synonym {key!r} -> 'male': key is blank after trimming"

    @pytest.mark.parametrize(
        "mapping", [["woman"], {"woman": 5}, {5: "female"}, {"woman": None}],
        ids=["non-mapping", "non-string target", "non-string key", "null target"],
    )
    def test_rejects_non_string_pairs(self, gender_schema, mapping):
        with pytest.raises(ValueError) as excinfo:
            SynonymMap(mapping, gender_schema)
        assert str(excinfo.value) == "field 'synonyms' must be an object of string pairs"


class FailOnSubstring(Provider):
    """Raises for prompts containing a marker; otherwise answers fixed text."""

    def __init__(self, provider_id, fail_on, response, max_retries=2):
        self.provider_id = provider_id
        self.fail_on = fail_on
        self.response = response
        self.max_retries = max_retries

    def complete(self, prompt: str) -> str:
        if self.fail_on and self.fail_on in prompt:
            raise ProviderRequestError("scripted outage")
        return self.response


class TestExtractLabels:
    def products(self, count=3):
        return [ProductText(f"sku-{n}", f"Product number {n}") for n in range(count)]

    def test_full_cartesian_product(self, gender_schema):
        providers = [
            MockProvider("m1", default_response="male"),
            MockProvider("m2", default_response="female"),
        ]
        records = extract_labels(
            self.products(3), gender_schema, providers
        )
        assert len(records) == 6
        assert [r.annotator_id for r in records] == ["m1"] * 3 + ["m2"] * 3
        assert [r.item_id for r in records[:3]] == ["sku-0", "sku-1", "sku-2"]

    def test_single_failure_leaves_a_missing_entry(self, gender_schema):
        providers = [
            MockProvider("m1", default_response="male"),
            FailOnSubstring("m2", fail_on="number 1", response="female"),
        ]
        records = extract_labels(
            self.products(3), gender_schema, providers
        )
        assert len(records) == 5
        assert ("m2", "sku-1") not in {(r.annotator_id, r.item_id) for r in records}

    def test_toddler_shirt_answers_parse_to_expected_labels(self):
        gender = AttributeSchema("gender", ["male", "female", "unisex"])
        age = AttributeSchema("age", ["baby", "child", "adult"])
        providers = [
            MockProvider("m1", responses={"Garanimals": "female"}),
            MockProvider("m2", responses={"Garanimals": " Female. "}),
        ]
        records = extract_labels([GARANIMALS], gender, providers)
        assert all(parse_response(r.raw_label, gender) == 2 for r in records)

        providers = [
            MockProvider("m1", responses={"Garanimals": "child"}),
            MockProvider("m2", responses={"Garanimals": "Child"}),
        ]
        records = extract_labels([GARANIMALS], age, providers)
        assert all(parse_response(r.raw_label, age) == 2 for r in records)

    def test_records_keep_raw_response_text(self, gender_schema):
        # A resolved response is recorded as its schema label; any other
        # response keeps its text, which aggregation reads as missing.
        synonyms = SynonymMap({"woman": "female"}, gender_schema)
        providers = [
            MockProvider("m1", default_response=" Female. "),
            MockProvider("m2", default_response="Woman!"),
            MockProvider("m3", default_response=" The gender is female "),
        ]
        records = extract_labels(
            self.products(1), gender_schema, providers, synonyms=synonyms
        )
        assert [r.raw_label for r in records] == [
            "female", "female", " The gender is female "
        ]

    def test_output_order_is_independent_of_completion_order(self, gender_schema):
        providers = [
            MockProvider("slow", default_response="male", delay=0.02),
            MockProvider("fast", default_response="female"),
        ]
        records = extract_labels(
            self.products(4), gender_schema, providers,
            max_in_flight=8,
        )
        assert [(r.annotator_id, r.item_id) for r in records] == [
            ("slow", f"sku-{n}") for n in range(4)
        ] + [("fast", f"sku-{n}") for n in range(4)]

    def test_in_flight_cap_is_respected(self, gender_schema):
        log = CallLog()
        provider = Logged("m1", log, delay=0.01)
        extract_labels(
            self.products(12), gender_schema, [provider],
            max_in_flight=3,
        )
        assert provider.calls == 12
        assert log.peak <= 3

    def test_single_use_provider_is_serialized(self, gender_schema):
        log = CallLog()
        provider = Logged("m1", log, delay=0.005, concurrency_safe=False)
        extract_labels(
            self.products(8), gender_schema, [provider],
            max_in_flight=8,
        )
        assert log.peak == 1

    def test_retries_until_success(self, gender_schema):
        provider = MockProvider(
            "m1", default_response="male", fail_times=2, max_retries=3
        )
        records = extract_labels(
            self.products(1), gender_schema, [provider]
        )
        assert len(records) == 1
        assert provider.calls == 3

    def test_gives_up_after_retry_budget(self, gender_schema):
        provider = MockProvider(
            "m1", default_response="male", fail_times=3, max_retries=3
        )
        records = extract_labels(
            self.products(1), gender_schema, [provider]
        )
        assert records == []
        assert provider.calls == 3

    @pytest.mark.parametrize("fail_times, records", [(4, 2), (6, 0)])
    def test_attempts_are_counted_per_request(
        self, gender_schema, monkeypatch, caplog, fail_times, records
    ):
        # One slot, two requests: the first four calls are each request's first
        # two attempts, so six scripted failures use up both budgets of three.
        monkeypatch.setattr("labelvote.extract.RETRY_BACKOFF_S", 0.05)
        log = CallLog()
        provider = Logged("m", log, fail_times=fail_times, max_retries=3)
        with caplog.at_level(logging.WARNING, logger="labelvote.extract"):
            found = extract_within(
                10, self.products(2), gender_schema, [provider], max_in_flight=1
            )
        assert len(found) == records
        assert provider.calls == 6
        per_product = Counter(re.search(r"Product number (\d+)", p).group(1) for p in log.prompts)
        assert per_product == {"0": 3, "1": 3}
        gave_up = [r.getMessage() for r in caplog.records if "giving up" in r.getMessage()]
        assert len(gave_up) == 2 - records
        assert all("after 3 attempt(s)" in message for message in gave_up)

    def test_failed_preflight_drops_the_provider(self, gender_schema, monkeypatch):
        monkeypatch.delenv("LLME_DOWN_API_KEY", raising=False)
        down = HttpProvider("down", "https://x.invalid", "m")
        up = MockProvider("up", default_response="male")
        records = extract_labels(
            self.products(2), gender_schema, [down, up]
        )
        assert {r.annotator_id for r in records} == {"up"}

    def test_blank_response_yields_no_record(self, gender_schema):
        providers = [MockProvider("m1", default_response="  ")]
        records = extract_labels(
            self.products(2), gender_schema, [providers[0]]
        )
        assert records == []

    def test_requires_products_and_providers(self, gender_schema):
        with pytest.raises(ValueError):
            extract_labels([], gender_schema, [MockProvider("m", default_response="x")])
        with pytest.raises(ValueError):
            extract_labels(self.products(1), gender_schema, [])

    @pytest.mark.parametrize("cap", [0, -1, 2.5, True, "2", None])
    def test_in_flight_cap_must_be_an_integer_of_at_least_one(self, gender_schema, cap):
        provider = MockProvider("m", default_response="male")
        with pytest.raises(ValueError) as excinfo:
            extract_labels(self.products(2), gender_schema, [provider], max_in_flight=cap)
        assert str(excinfo.value) == "field 'max_in_flight' must be an integer >= 1"
        assert provider.calls == 0


class CallLog:
    """Calls shared by several providers: start order and peak concurrency."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = Counter()  # calls running now, per provider id
        self.peak = 0  # the most calls running at once, all providers together
        self.peaks = Counter()  # the most calls running at once, per provider id
        self.starts = []  # provider ids in the order their calls began
        self.prompts = []  # the prompt of each of those calls
        self.threads = set()  # the threads that called complete()


class Logged(MockProvider):
    """A MockProvider that also reports each call to a shared CallLog."""

    def __init__(self, provider_id, log, **options):
        super().__init__(provider_id, default_response=provider_id, **options)
        self.log = log

    def complete(self, prompt: str) -> str:
        with self.log.lock:
            self.log.in_flight[self.provider_id] += 1
            self.log.peak = max(self.log.peak, self.log.in_flight.total())
            self.log.peaks[self.provider_id] = max(
                self.log.peaks[self.provider_id], self.log.in_flight[self.provider_id]
            )
            self.log.starts.append(self.provider_id)
            self.log.prompts.append(prompt)
            self.log.threads.add(threading.current_thread())
        try:
            return super().complete(prompt)
        finally:
            with self.log.lock:
                self.log.in_flight[self.provider_id] -= 1


class RaisesOn(Provider):
    """Answers fixed text, but a bug raises TypeError for one prompt."""

    def __init__(self, provider_id, marker):
        self.provider_id = provider_id
        self.marker = marker
        self.prompts = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if self.marker in prompt:
            raise TypeError("provider bug")
        return "male"


class ReturnsInt(Provider):
    """A provider bug: complete() returns an int instead of text."""

    def __init__(self, provider_id):
        self.provider_id = provider_id
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        return 5


def extract_within(timeout, *args, **kwargs):
    """Run extract_labels in a helper thread: a dispatcher that stalls fails, not hangs."""
    outcome = {}

    def target():
        try:
            outcome["records"] = extract_labels(*args, **kwargs)
        except BaseException as exc:  # handed to the test thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "extract_labels did not finish"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["records"]


class TestScheduler:
    def products(self, count):
        return [ProductText(f"sku-{n}", f"Product number {n}") for n in range(count)]

    def test_cap_holds_across_providers(self, gender_schema):
        log = CallLog()
        providers = [Logged(f"m{k}", log, delay=0.001) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # 12 lanes contend for 3 slots at every bytecode
        try:
            records = extract_within(
                10, self.products(12), gender_schema, providers,
                max_in_flight=3,
            )
        finally:
            sys.setswitchinterval(interval)
        assert len(records) == 48
        assert len(log.starts) == 48
        assert log.peak <= 3

    def test_unsafe_provider_takes_one_slot(self, gender_schema):
        log = CallLog()
        serial = Logged("serial", log, delay=0.005, concurrency_safe=False)
        providers = [Logged("a", log, delay=0.005), serial, Logged("b", log, delay=0.005)]
        extract_within(
            10, self.products(8), gender_schema, providers,
            max_in_flight=4,
        )
        assert serial.calls == 8
        assert log.peaks["serial"] == 1
        assert log.peak <= 4

    def test_backoff_holds_no_slot(self, gender_schema, monkeypatch):
        monkeypatch.setattr("labelvote.extract.RETRY_BACKOFF_S", 0.3)
        log = CallLog()
        a = Logged("a", log, fail_times=1, max_retries=2)
        b = Logged("b", log)
        records = extract_within(
            10, self.products(5), gender_schema, [a, b],
            max_in_flight=1,
        )
        assert len(records) == 10
        # a's first call, for product 0, failed; its retry is the second call
        # with that prompt, and every call of b ran during the backoff.
        retry = [
            n for n, (pid, prompt) in enumerate(zip(log.starts, log.prompts))
            if pid == "a" and "Product number 0" in prompt
        ][1]
        b_calls = [n for n, pid in enumerate(log.starts) if pid == "b"]
        assert len(b_calls) == 5
        assert max(b_calls) < retry

    def test_backoff_lets_the_provider_go_on(self, gender_schema, monkeypatch):
        monkeypatch.setattr("labelvote.extract.RETRY_BACKOFF_S", 0.3)
        log = CallLog()
        provider = Logged("a", log, fail_times=1, max_retries=2)
        records = extract_within(
            10, self.products(5), gender_schema, [provider],
            max_in_flight=1,
        )
        assert len(records) == 5
        # Product 0 failed first; the provider's other four products ran
        # during the backoff, on the one slot, and the retry came last.
        numbers = [int(re.search(r"Product number (\d+)", p).group(1)) for p in log.prompts]
        assert numbers[0] == numbers[-1] == 0
        assert sorted(numbers[1:-1]) == [1, 2, 3, 4]

    def test_freed_slot_goes_to_the_longest_waiter(self, gender_schema):
        log = CallLog()
        providers = [Logged("a", log, delay=0.005), Logged("b", log, delay=0.005)]
        extract_within(
            10, self.products(5), gender_schema, providers,
            max_in_flight=1,
        )
        # One slot, two providers with as many queued requests per lane:
        # each send shortens its own queue, so the other goes next and the
        # calls alternate (9 switches) rather than run as two blocks (1).
        switches = sum(x != y for x, y in zip(log.starts, log.starts[1:]))
        assert switches >= 6

    def test_serial_provider_does_not_straggle(self, gender_schema):
        log = CallLog()
        providers = [
            Logged("a", log, delay=0.01),
            Logged("serial", log, delay=0.01, concurrency_safe=False),
            Logged("b", log, delay=0.01),
        ]
        records = extract_within(
            10, self.products(8), gender_schema, providers,
            max_in_flight=2,
        )
        assert len(records) == 24
        # Queued requests per lane pick the next request: the serial
        # provider, with one lane, keeps a slot busy early instead of being
        # left alone on one slot at the end.
        assert log.starts[-1] != "serial"
        assert log.peak <= 2
        assert len(log.threads) <= 2  # one pool for all providers

    def test_mixed_providers_keep_provider_major_order(self, gender_schema, monkeypatch):
        monkeypatch.setattr("labelvote.extract.RETRY_BACKOFF_S", 0.01)
        log = CallLog()
        providers = [
            Logged("slow", log, delay=0.01),
            Logged("retry", log, fail_times=2, max_retries=3),
            Logged("serial", log, delay=0.002, concurrency_safe=False),
            Logged("plain", log),
        ]
        records = extract_within(
            10, self.products(6), gender_schema, providers,
            max_in_flight=2,
        )
        assert [(r.annotator_id, r.item_id, r.raw_label) for r in records] == [
            (p.provider_id, f"sku-{n}", p.provider_id) for p in providers for n in range(6)
        ]
        assert log.peak <= 2

    @pytest.mark.parametrize(
        "cap, n_products, concurrency_safe, reached",
        [(64, 3, True, 3), (2, 40, True, 2), (64, 3, False, 1)],
        ids=["few products", "low cap", "serial"],
    )
    def test_pool_size(self, gender_schema, cap, n_products, concurrency_safe, reached):
        log = CallLog()
        provider = Logged("m", log, delay=0.03, concurrency_safe=concurrency_safe)
        records = extract_within(
            10, self.products(n_products), gender_schema, [provider],
            max_in_flight=cap,
        )
        assert len(records) == n_products
        assert log.peak == reached
        assert len(log.threads) <= min(cap, n_products)

    # The autouse no_retry_backoff fixture keeps RETRY_BACKOFF_S at 0 for every example.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_invariants_over_random_provider_mixes(self, gender_schema, data):
        log = CallLog()
        providers = [
            Logged(
                f"m{k}", log,
                concurrency_safe=data.draw(st.booleans()),
                fail_times=data.draw(st.integers(0, 4)),
                max_retries=data.draw(st.integers(1, 3)),
                delay=data.draw(st.sampled_from([0.0, 0.001])),
            )
            for k in range(data.draw(st.integers(1, 4)))
        ]
        cap = data.draw(st.integers(1, 4))
        n_products = data.draw(st.integers(1, 6))
        records = extract_within(
            10, self.products(n_products), gender_schema, providers, max_in_flight=cap,
        )
        keys = [(int(r.annotator_id[1:]), int(r.item_id[4:])) for r in records]
        assert keys == sorted(set(keys))  # provider-major, each in product order
        assert log.peak <= cap
        for p in providers:
            if not p.concurrency_safe:
                assert log.peaks[p.provider_id] <= 1
            got = sum(r.annotator_id == p.provider_id for r in records)
            assert got == p.calls - min(p.fail_times, p.calls)
            if p.fail_times < p.max_retries:
                assert got == n_products

    def test_provider_bug_costs_one_request(self, gender_schema, caplog):
        buggy = RaisesOn("buggy", marker="number 2")
        providers = [buggy, MockProvider("m2", default_response="female")]
        with caplog.at_level(logging.WARNING, logger="labelvote.extract"):
            records = extract_within(
                10, self.products(4), gender_schema, providers,
                max_in_flight=2,
            )
        assert [(r.annotator_id, r.item_id) for r in records] == [
            ("buggy", "sku-0"), ("buggy", "sku-1"), ("buggy", "sku-3"),
        ] + [("m2", f"sku-{n}") for n in range(4)]
        assert len(buggy.prompts) == 4  # the failing request is not retried
        assert any("buggy" in r.getMessage() for r in caplog.records)

    def test_non_string_response_costs_only_its_requests(self, gender_schema, caplog):
        broken = ReturnsInt("broken")
        providers = [broken, MockProvider("m2", default_response="female")]
        with caplog.at_level(logging.WARNING, logger="labelvote.extract"):
            records = extract_within(
                10, self.products(3), gender_schema, providers,
                max_in_flight=2,
            )
        assert [(r.annotator_id, r.item_id, r.raw_label) for r in records] == [
            ("m2", f"sku-{n}", "female") for n in range(3)
        ]
        assert broken.calls == 3  # one per product: not retried
        assert any("broken" in r.getMessage() for r in caplog.records)


def chat_body(content):
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


def send(status, body=b"", headers=(), length=None):
    """A route that answers with ``status``, ``headers`` and ``body``."""

    def reply(handler):
        handler.send_response(status)
        for name, value in headers:
            handler.send_header(name, value)
        handler.send_header("Content-Length", str(len(body) if length is None else length))
        handler.end_headers()
        handler.wfile.write(body)

    return reply


def hang_up(handler):
    """A route that closes the connection without a reply."""
    handler.close_connection = True


def stall(handler):
    """A route that answers nothing until the test ends."""
    handler.server.release.wait(10)
    handler.close_connection = True


def redirect(status, target):
    """A route that redirects to ``target``: a URL, or a path on this server named as localhost."""

    def reply(handler):
        here = f"http://localhost:{handler.server.server_port}"
        send(status, headers=[("Location", urljoin(here, target))])(handler)

    return reply


class ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.log.append((self.command, self.path, self.headers, body))
        self.server.routes[self.path](self)

    do_GET = do_POST

    def log_message(self, *args):
        pass


class ChatServer(ThreadingHTTPServer):
    """A chat-completions endpoint on 127.0.0.1. ``routes`` maps a request
    path to a reply function; ``log`` lists (method, path, headers, body)."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), ChatHandler)
        self.routes = {}
        self.log = []
        self.release = threading.Event()

    def url(self, path):
        return f"http://127.0.0.1:{self.server_port}{path}"


@pytest.fixture
def chat_server(monkeypatch):
    # Requests to the local server go straight to it, whatever proxy the environment names.
    monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")
    monkeypatch.setenv("PROV_TEST_KEY", "secret")
    server = ChatServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.release.set()
    server.shutdown()
    server.server_close()
    thread.join(10)


def run_python(code, env):
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), env.get("PYTHONPATH", "")]
    env = dict(env, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestHttpProvider:
    def provider(self, endpoint="https://api.example/v1/chat", **options):
        return HttpProvider(
            "prov", endpoint, "model-x",
            credential_ref="PROV_TEST_KEY", request_options={"top_p": 0.1}, **options,
        )

    def test_success_and_request_shape(self, chat_server):
        chat_server.routes["/v1/chat"] = send(200, chat_body("female"))
        provider = self.provider(chat_server.url("/v1/chat"))
        assert provider.timeout == 30.0
        assert provider.complete("the prompt") == "female"
        [(method, path, headers, body)] = chat_server.log
        assert (method, path) == ("POST", "/v1/chat")
        assert headers["Authorization"] == "Bearer secret"
        assert headers["Content-Type"] == "application/json"
        assert body == json.dumps({
            "model": "model-x",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0,
            "top_p": 0.1,
        }).encode()

    def test_http_error_raises_request_error(self, chat_server):
        chat_server.routes["/chat"] = send(503)
        with pytest.raises(ProviderRequestError, match="503"):
            self.provider(chat_server.url("/chat")).complete("x")

    # Any status but 200 fails; 3xx and 4xx but 429 are rejected, and so not retried.
    @pytest.mark.parametrize(
        "status, attempts",
        [(400, 1), (404, 1), (429, 3), (503, 3), (307, 1),
         (201, 3), (204, 3), (401, 1), (500, 3)],
    )
    def test_only_429_and_5xx_are_retried(self, chat_server, gender_schema, status, attempts):
        # A 201 with a well-formed reply still fails.
        chat_server.routes["/chat"] = send(status, b"" if status == 204 else chat_body("female"))
        provider = self.provider(chat_server.url("/chat"))
        assert provider.max_retries == 3
        records = extract_within(
            10, [ProductText("sku-1", "Socks")], gender_schema, [provider]
        )
        assert records == []
        assert len(chat_server.log) == attempts
        with pytest.raises(ProviderRequestError, match=f"HTTP {status}") as excinfo:
            provider.complete("x")
        assert isinstance(excinfo.value, ProviderRejectedError) == (attempts == 1)

    def test_bad_payload_raises_request_error(self, chat_server):
        chat_server.routes["/chat"] = send(200, json.dumps({"oops": True}).encode())
        with pytest.raises(ProviderRequestError, match="shape"):
            self.provider(chat_server.url("/chat")).complete("x")

    @pytest.mark.parametrize("content", ["Mädchen – fille", None], ids=["non-ASCII", "null"])
    def test_reply_content_is_returned(self, chat_server, content):
        chat_server.routes["/chat"] = send(200, chat_body(content))
        assert self.provider(chat_server.url("/chat")).complete("x") == content

    @pytest.mark.parametrize(
        "body, headers",
        [
            (b"<html>busy</html>", ()),
            # urllib asks for identity encoding and decodes no other.
            (gzip.compress(chat_body("female")), [("Content-Encoding", "gzip")]),
        ],
        ids=["non-JSON", "gzip"],
    )
    def test_unexpected_shape(self, chat_server, body, headers):
        chat_server.routes["/chat"] = send(200, body, headers)
        with pytest.raises(ProviderRequestError, match="unexpected response shape"):
            self.provider(chat_server.url("/chat")).complete("x")

    @pytest.mark.parametrize("route", ["truncated", "hang-up", "timeout", "refused"])
    def test_transport_failure(self, chat_server, route):
        chat_server.routes["/truncated"] = send(200, chat_body("female")[:10], length=100)
        chat_server.routes["/hang-up"] = hang_up
        chat_server.routes["/timeout"] = stall
        if route == "refused":
            endpoint = f"http://127.0.0.1:{closed_port()}/chat"
        else:
            endpoint = chat_server.url(f"/{route}")
        with pytest.raises(ProviderRequestError, match="request failed") as excinfo:
            self.provider(endpoint, timeout=0.2).complete("x")
        assert not isinstance(excinfo.value, ProviderRejectedError)

    @pytest.mark.parametrize("status", [301, 302, 303])
    def test_redirect_is_followed_as_get_without_the_key(self, chat_server, status):
        chat_server.routes["/old"] = redirect(status, "/chat")
        chat_server.routes["/chat"] = send(200, chat_body("female"))
        assert self.provider(chat_server.url("/old")).complete("x") == "female"
        (first, _, first_headers, _), (second, path, headers, body) = chat_server.log
        assert (first, first_headers["Authorization"]) == ("POST", "Bearer secret")
        assert (second, path, body) == ("GET", "/chat", b"")
        assert headers["Host"].startswith("localhost:")
        assert "Authorization" not in headers

    @pytest.mark.parametrize(
        "status, target",
        [(300, "/chat"), (307, "/chat"), (308, "/chat"), (302, "ftp://127.0.0.1:{port}/x")],
        ids=["300", "307", "308", "302-to-ftp"],
    )
    def test_other_redirects_are_rejected(self, chat_server, status, target):
        chat_server.routes["/old"] = redirect(status, target.format(port=closed_port()))
        with pytest.raises(ProviderRejectedError, match=f"HTTP {status}"):
            self.provider(chat_server.url("/old")).complete("x")
        assert len(chat_server.log) == 1

    def test_proxy_comes_from_the_environment(self, chat_server, monkeypatch):
        # A proxy gets the absolute URL as the request path. The endpoint's port is
        # closed, so a request that skipped the proxy would be refused.
        endpoint = f"http://127.0.0.1:{closed_port()}/v1/chat"
        chat_server.routes[endpoint] = send(200, chat_body("female"))
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        provider = self.provider(endpoint)
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{closed_port()}")
        with pytest.raises(ProviderRequestError, match="request failed"):
            provider.complete("x")
        # The variable is read again at each request, not once per process.
        monkeypatch.setenv("http_proxy", chat_server.url(""))
        assert provider.complete("x") == "female"

    def test_round_trip_without_requests(self, chat_server):
        chat_server.routes["/chat"] = send(200, chat_body("female"))
        code = (
            "import sys\n"
            "sys.modules['requests'] = None  # any import of it now fails\n"
            "from labelvote import HttpProvider\n"
            f"print(HttpProvider('prov', {chat_server.url('/chat')!r}, 'm',"
            " credential_ref='PROV_TEST_KEY').complete('x'))"
        )
        assert run_python(code, dict(os.environ)) == "female"

    def test_missing_credential_fails_preflight(self, monkeypatch):
        monkeypatch.delenv("PROV_TEST_KEY", raising=False)
        with pytest.raises(CredentialError, match="PROV_TEST_KEY"):
            self.provider().preflight()

    def test_missing_credential_fails_the_request_before_it_is_sent(self, monkeypatch):
        # The port is closed, so a request that was sent would fail as ProviderRequestError.
        provider = self.provider(f"http://127.0.0.1:{closed_port()}/chat")
        monkeypatch.delenv("PROV_TEST_KEY", raising=False)
        with pytest.raises(CredentialError, match="missing credential PROV_TEST_KEY"):
            provider.complete("x")

    def test_default_credential_convention(self):
        provider = HttpProvider("gpt-4", "https://x", "m")
        assert provider.credential_env_var == "LLME_GPT_4_API_KEY"


class TestProviderLoading:
    def test_mixed_kinds(self, tmp_path):
        path = tmp_path / "providers.json"
        path.write_text(
            """[
  {"kind": "mock", "provider_id": "m1", "default_response": "male"},
  {"provider_id": "h1", "endpoint": "https://x", "model_name": "m"}
]""",
            encoding="utf-8",
        )
        providers = load_providers(path)
        assert isinstance(providers[0], MockProvider)
        assert isinstance(providers[1], HttpProvider)

    def test_scheme_ignores_case_and_one_day_is_the_longest_wait(self):
        assert HttpProvider("h1", "HTTPS://x", "m", timeout=86_400).timeout == 86_400
        assert MockProvider("m1", delay=86_400).delay == 86_400

    def test_zero_delay_and_no_scripted_failures_are_allowed(self):
        provider = MockProvider("m1", default_response="x", fail_times=0, delay=0)
        assert (provider.fail_times, provider.delay) == (0, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_provider({"kind": "carrier-pigeon", "provider_id": "x"})

    def test_unexpected_option_rejected(self):
        with pytest.raises(ValueError, match="mock"):
            make_provider({"kind": "mock", "provider_id": "x", "spiciness": 11})

    @pytest.mark.parametrize(
        "config, reason",
        [
            ({"provider_id": "h1"}, "http provider config: missing field(s) endpoint, model_name"),
            ({"kind": "http"},
             "http provider config: missing field(s) provider_id, endpoint, model_name"),
            ({"kind": "mock"}, "mock provider config: missing field(s) provider_id"),
            ({"kind": "mock", "provider_id": "m", "calls": 3},
             "mock provider config: unknown field(s) calls"),
            ({"kind": "mock", "provider_id": "m", "in_flight": 0, "max_in_flight": 1},
             "mock provider config: unknown field(s) in_flight, max_in_flight"),
            ({"provider_id": "h1", "endpoint": "https://x", "model_name": "m", "delay": 1},
             "http provider config: unknown field(s) delay"),
            ({"kind": "mock", "provider_id": "m", 5: 1},
             "mock provider config: unknown field(s) 5"),
        ],
        ids=["http no endpoint", "http no id", "mock no id", "mock counter", "mock counters",
             "http mock option", "mock non-string option"],
    )
    def test_missing_and_unknown_options_are_named(self, config, reason):
        with pytest.raises(ValueError) as excinfo:
            make_provider(config)
        assert str(excinfo.value) == f"invalid {reason}"

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "providers.json"
        path.write_text(
            '[{"kind": "mock", "provider_id": "m", "default_response": "x"},'
            ' {"kind": "mock", "provider_id": "m", "default_response": "y"}]',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_providers(path)

    def test_empty_array_rejected(self, tmp_path):
        path = tmp_path / "providers.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ValueError):
            load_providers(path)
