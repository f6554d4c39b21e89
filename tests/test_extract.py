"""Prompt rendering, response parsing, and the extraction engine."""

import logging
import sys
import threading

import pytest

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
    ProviderSpec,
    SynonymMap,
    default_template,
    extract_labels,
    load_providers,
    make_provider,
    parse_response,
    render_prompt,
)
from labelvote.extract import _lane_count

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
        synonyms = SynonymMap.validated({"woman": "female"}, gender_schema)
        assert parse_response("woman", gender_schema, synonyms) == 2

    def test_idempotent_through_decode(self, gender_schema):
        synonyms = SynonymMap.validated({"woman": "female"}, gender_schema)
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
            SynonymMap.validated({"woman": "lady"}, gender_schema)

    def test_keys_are_normalized(self, gender_schema):
        synonyms = SynonymMap.validated({" Woman ": "female"}, gender_schema)
        assert synonyms.canonical("woman") == "female"


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
            self.products(3), gender_schema, providers, retry_backoff=0.0
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
            self.products(3), gender_schema, providers, retry_backoff=0.0
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
        records = extract_labels([GARANIMALS], gender, providers, retry_backoff=0.0)
        assert all(parse_response(r.raw_label, gender) == 2 for r in records)

        providers = [
            MockProvider("m1", responses={"Garanimals": "child"}),
            MockProvider("m2", responses={"Garanimals": "Child"}),
        ]
        records = extract_labels([GARANIMALS], age, providers, retry_backoff=0.0)
        assert all(parse_response(r.raw_label, age) == 2 for r in records)

    def test_records_keep_raw_response_text(self, gender_schema):
        providers = [MockProvider("m1", default_response=" Female. ")]
        records = extract_labels(
            self.products(1), gender_schema, providers, retry_backoff=0.0
        )
        assert records[0].raw_label == " Female. "

    def test_output_order_is_independent_of_completion_order(self, gender_schema):
        providers = [
            MockProvider("slow", default_response="male", delay=0.02),
            MockProvider("fast", default_response="female"),
        ]
        records = extract_labels(
            self.products(4), gender_schema, providers,
            max_in_flight=8, retry_backoff=0.0,
        )
        assert [(r.annotator_id, r.item_id) for r in records] == [
            ("slow", f"sku-{n}") for n in range(4)
        ] + [("fast", f"sku-{n}") for n in range(4)]

    def test_in_flight_cap_is_respected(self, gender_schema):
        provider = MockProvider("m1", default_response="male", delay=0.01)
        extract_labels(
            self.products(12), gender_schema, [provider],
            max_in_flight=3, retry_backoff=0.0,
        )
        assert provider.calls == 12
        assert provider.max_in_flight <= 3

    def test_single_use_provider_is_serialized(self, gender_schema):
        provider = MockProvider(
            "m1", default_response="male", delay=0.005, concurrency_safe=False
        )
        extract_labels(
            self.products(8), gender_schema, [provider],
            max_in_flight=8, retry_backoff=0.0,
        )
        assert provider.max_in_flight == 1

    def test_retries_until_success(self, gender_schema):
        provider = MockProvider(
            "m1", default_response="male", fail_times=2, max_retries=3
        )
        records = extract_labels(
            self.products(1), gender_schema, [provider], retry_backoff=0.0
        )
        assert len(records) == 1
        assert provider.calls == 3

    def test_gives_up_after_retry_budget(self, gender_schema):
        provider = MockProvider(
            "m1", default_response="male", fail_times=3, max_retries=3
        )
        records = extract_labels(
            self.products(1), gender_schema, [provider], retry_backoff=0.0
        )
        assert records == []
        assert provider.calls == 3

    def test_failed_preflight_drops_the_provider(self, gender_schema, monkeypatch):
        monkeypatch.delenv("LLME_DOWN_API_KEY", raising=False)
        down = HttpProvider(ProviderSpec("down", "https://x.invalid", "m"))
        up = MockProvider("up", default_response="male")
        records = extract_labels(
            self.products(2), gender_schema, [down, up], retry_backoff=0.0
        )
        assert {r.annotator_id for r in records} == {"up"}

    def test_blank_response_yields_no_record(self, gender_schema):
        providers = [MockProvider("m1", default_response="  ")]
        records = extract_labels(
            self.products(2), gender_schema, [providers[0]], retry_backoff=0.0
        )
        assert records == []

    def test_requires_products_and_providers(self, gender_schema):
        with pytest.raises(ValueError):
            extract_labels([], gender_schema, [MockProvider("m", default_response="x")])
        with pytest.raises(ValueError):
            extract_labels(self.products(1), gender_schema, [])


class CallLog:
    """Calls shared by several providers: start order and peak concurrency."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0
        self.starts = []  # provider ids in the order their calls began


class Logged(MockProvider):
    """A MockProvider that also reports each call to a shared CallLog."""

    def __init__(self, provider_id, log, **options):
        super().__init__(provider_id, default_response=provider_id, **options)
        self.log = log

    def complete(self, prompt: str) -> str:
        with self.log.lock:
            self.log.in_flight += 1
            self.log.peak = max(self.log.peak, self.log.in_flight)
            self.log.starts.append(self.provider_id)
        try:
            return super().complete(prompt)
        finally:
            with self.log.lock:
                self.log.in_flight -= 1


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
    """Run extract_labels in a helper thread: a lost slot handoff fails, not hangs."""
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
                max_in_flight=3, retry_backoff=0.0,
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
            max_in_flight=4, retry_backoff=0.0,
        )
        assert serial.calls == 8
        assert serial.max_in_flight == 1
        assert log.peak <= 4

    def test_backoff_holds_no_slot(self, gender_schema):
        log = CallLog()
        a = Logged("a", log, fail_times=1, max_retries=2)
        b = Logged("b", log)
        records = extract_within(
            10, self.products(5), gender_schema, [a, b],
            max_in_flight=1, retry_backoff=0.3,
        )
        assert len(records) == 10
        a_calls = [n for n, pid in enumerate(log.starts) if pid == "a"]
        b_calls = [n for n, pid in enumerate(log.starts) if pid == "b"]
        # a's first call failed; every call of b ran while a slept before retrying.
        assert len(b_calls) == 5
        assert max(b_calls) < a_calls[1]

    def test_freed_slot_goes_to_the_longest_waiter(self, gender_schema):
        log = CallLog()
        providers = [Logged("a", log, delay=0.005), Logged("b", log, delay=0.005)]
        extract_within(
            10, self.products(5), gender_schema, providers,
            max_in_flight=1, retry_backoff=0.0,
        )
        # One slot, two lanes: a lane that releases the slot and asks again
        # queues behind the other instead of taking it back at once, so the
        # calls alternate (9 switches) rather than run as two blocks (1).
        switches = sum(x != y for x, y in zip(log.starts, log.starts[1:]))
        assert switches >= 6

    def test_mixed_providers_keep_provider_major_order(self, gender_schema):
        log = CallLog()
        providers = [
            Logged("slow", log, delay=0.01),
            Logged("retry", log, fail_times=2, max_retries=3),
            Logged("serial", log, delay=0.002, concurrency_safe=False),
            Logged("plain", log),
        ]
        records = extract_within(
            10, self.products(6), gender_schema, providers,
            max_in_flight=2, retry_backoff=0.01,
        )
        assert [(r.annotator_id, r.item_id, r.raw_label) for r in records] == [
            (p.provider_id, f"sku-{n}", p.provider_id) for p in providers for n in range(6)
        ]
        assert log.peak <= 2

    def test_lane_count(self):
        safe = MockProvider("safe", default_response="x")
        serial = MockProvider("serial", default_response="x", concurrency_safe=False)
        assert _lane_count(safe, 64, 3) == 3
        assert _lane_count(safe, 2, 200) == 2
        assert _lane_count(serial, 64, 3) == 1

    def test_provider_bug_costs_one_request(self, gender_schema, caplog):
        buggy = RaisesOn("buggy", marker="number 2")
        providers = [buggy, MockProvider("m2", default_response="female")]
        with caplog.at_level(logging.WARNING, logger="labelvote.extract"):
            records = extract_within(
                10, self.products(4), gender_schema, providers,
                max_in_flight=2, retry_backoff=0.0,
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
                max_in_flight=2, retry_backoff=0.0,
            )
        assert [(r.annotator_id, r.item_id, r.raw_label) for r in records] == [
            ("m2", f"sku-{n}", "female") for n in range(3)
        ]
        assert broken.calls == 3  # one per product: not retried
        assert any("broken" in r.getMessage() for r in caplog.records)


class FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("no payload")
        return self._payload


class TestHttpProvider:
    def spec(self):
        return ProviderSpec(
            "prov", "https://api.example/v1/chat", "model-x",
            credential_ref="PROV_TEST_KEY", request_options={"top_p": 0.1},
        )

    def test_success_and_request_shape(self, monkeypatch):
        monkeypatch.setenv("PROV_TEST_KEY", "secret")
        captured = {}

        def fake_post(url, headers=None, json=None, timeout=None):
            captured.update(url=url, headers=headers, body=json, timeout=timeout)
            return FakeResponse(200, {"choices": [{"message": {"content": "female"}}]})

        monkeypatch.setattr("labelvote.providers.requests.post", fake_post)
        provider = HttpProvider(self.spec())
        assert provider.complete("the prompt") == "female"
        assert captured["url"] == "https://api.example/v1/chat"
        assert captured["headers"]["Authorization"] == "Bearer secret"
        assert captured["body"]["model"] == "model-x"
        assert captured["body"]["temperature"] == 0
        assert captured["body"]["top_p"] == 0.1
        assert captured["body"]["messages"][0]["content"] == "the prompt"
        assert captured["timeout"] == 30.0

    def test_http_error_raises_request_error(self, monkeypatch):
        monkeypatch.setenv("PROV_TEST_KEY", "secret")
        monkeypatch.setattr(
            "labelvote.providers.requests.post",
            lambda *a, **k: FakeResponse(503),
        )
        with pytest.raises(ProviderRequestError, match="503"):
            HttpProvider(self.spec()).complete("x")

    @pytest.mark.parametrize("status, attempts", [(400, 1), (404, 1), (429, 3), (503, 3)])
    def test_only_429_and_5xx_are_retried(self, monkeypatch, gender_schema, status, attempts):
        monkeypatch.setenv("PROV_TEST_KEY", "secret")
        posts = []

        def fake_post(*args, **kwargs):
            posts.append(status)
            return FakeResponse(status)

        monkeypatch.setattr("labelvote.providers.requests.post", fake_post)
        provider = HttpProvider(self.spec())
        assert provider.max_retries == 3
        records = extract_within(
            10, [ProductText("sku-1", "Socks")], gender_schema, [provider], retry_backoff=0.0
        )
        assert records == []
        assert len(posts) == attempts
        with pytest.raises(ProviderRequestError) as excinfo:
            provider.complete("x")
        assert isinstance(excinfo.value, ProviderRejectedError) == (attempts == 1)

    def test_bad_payload_raises_request_error(self, monkeypatch):
        monkeypatch.setenv("PROV_TEST_KEY", "secret")
        monkeypatch.setattr(
            "labelvote.providers.requests.post",
            lambda *a, **k: FakeResponse(200, {"oops": True}),
        )
        with pytest.raises(ProviderRequestError, match="shape"):
            HttpProvider(self.spec()).complete("x")

    def test_missing_credential_fails_preflight(self, monkeypatch):
        monkeypatch.delenv("PROV_TEST_KEY", raising=False)
        with pytest.raises(CredentialError, match="PROV_TEST_KEY"):
            HttpProvider(self.spec()).preflight()

    def test_default_credential_convention(self):
        spec = ProviderSpec("gpt-4", "https://x", "m")
        assert spec.credential_env_var == "LLME_GPT_4_API_KEY"


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

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_provider({"kind": "carrier-pigeon", "provider_id": "x"})

    def test_unexpected_option_rejected(self):
        with pytest.raises(ValueError, match="mock"):
            make_provider({"kind": "mock", "provider_id": "x", "spiciness": 11})

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
