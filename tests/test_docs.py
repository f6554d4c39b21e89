"""Every JSON example in docs/formats.md passes the strict reader of its section."""

import argparse
import re
from pathlib import Path

import pytest

from labelvote import (
    AttributeSchema, SynonymMap, load_providers, read_annotations, read_predictions,
    read_products, read_weights,
)
from labelvote.cli import _load_workers, _schema_from_args
from labelvote.storage import read_json

FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"
SCHEMA = AttributeSchema("gender", ["male", "female", "unisex"])  # the schema file's example

# Section heading (up to its first " (") -> the reader that loads its example from a path.
READERS = {
    "Annotations": read_annotations,
    "Predictions and ground truth": read_predictions,
    "Weights report": read_weights,
    "Worker profiles": _load_workers,
    "Providers": load_providers,
    "Synonyms file": lambda path: SynonymMap(read_json(path), SCHEMA),
    "Products": read_products,
    "Schema file": lambda path: _schema_from_args(
        argparse.Namespace(schema=path, labels=None, attribute=None)
    ),
}


def examples():
    """(section, fenced JSON text) for every ```json fence, in document order."""
    text = FORMATS.read_text(encoding="utf-8")
    found = []
    for section in re.split(r"^## ", text, flags=re.M)[1:]:
        heading = section.splitlines()[0].split(" (")[0]
        found += [(heading, body) for body in re.findall(r"^```json\n(.*?)^```$", section,
                                                         flags=re.M | re.S)]
    return found


def test_every_example_has_a_reader():
    assert [heading for heading, _ in examples()] == list(READERS)


@pytest.mark.parametrize("heading, body", examples(), ids=[h for h, _ in examples()])
def test_example_passes_its_reader(tmp_path, heading, body):
    path = tmp_path / "example"
    path.write_text(body, encoding="utf-8")
    assert READERS[heading](path)
