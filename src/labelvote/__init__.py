"""Consensus labels from multiple noisy annotators via weighted voting.

The package's names are resolved on first use (PEP 562), so importing it
loads no submodule; numpy is loaded only with ``aggregate``, ``simulate``
or ``core``. ``labelvote aggregate`` loads numpy only when its input is not
a regular file or its size in bytes times ``--max-iter`` exceeds
``ensemble.PLAIN_BUDGET`` (8 MiB); a smaller input is voted on in plain Python.
"""

import importlib

_MODULE = {  # name -> defining module
    name: module
    for module, names in {
        "aggregate": "estimate_accuracies majority_vote run_ensemble weighted_vote",
        "core": "AnnotationMatrix build_matrix read_matrix write_matrix",
        "ensemble": "EnsembleConfig EnsembleState oracle_weights update_weights",
        "extract": "PromptTemplate SynonymMap default_template extract_labels parse_response "
        "render_prompt",
        "jsonl": "prediction_columns",
        "providers": "CredentialError HttpProvider MockProvider Provider ProviderError "
        "ProviderRejectedError ProviderRequestError load_providers make_provider",
        "simulate": "SimulationConfig WorkerProfile generate_ground_truth score_accuracy "
        "simulate_annotations",
        "storage": "AnnotationRecord AttributeSchema ConflictError ExtendedLabel PredictionRecord "
        "ProductText WeightsReport encode_label read_annotations read_predictions read_products "
        "read_weights write_annotations write_predictions write_weights",
    }.items()
    for name in names.split()
}

__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    # Not stored in globals(): a later patch of the module's name is seen here.
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE[name]}"), name)
