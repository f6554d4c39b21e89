"""Consensus labels from multiple noisy annotators via weighted voting."""

from .aggregate import (
    EnsembleConfig,
    EnsembleState,
    estimate_accuracies,
    majority_vote,
    oracle_weights,
    run_ensemble,
    update_weights,
    weighted_vote,
)
from .core import (
    AnnotationMatrix,
    AnnotationRecord,
    AttributeSchema,
    ConflictError,
    ExtendedLabel,
    ProductText,
    build_matrix,
    decode_label,
    encode_label,
)
from .extract import (
    PromptTemplate,
    SynonymMap,
    default_template,
    extract_labels,
    parse_response,
    render_prompt,
)
from .providers import (
    CredentialError,
    HttpProvider,
    MockProvider,
    Provider,
    ProviderError,
    ProviderRejectedError,
    ProviderRequestError,
    load_providers,
    make_provider,
)
from .simulate import (
    SimulationConfig,
    WorkerProfile,
    generate_ground_truth,
    score_accuracy,
    simulate_annotations,
)
from .storage import (
    PredictionRecord,
    WeightsReport,
    read_annotations,
    read_matrix,
    read_prediction_rows,
    read_predictions,
    read_products,
    read_weights,
    write_annotations,
    write_matrix,
    write_predictions,
    write_weights,
)

__version__ = "0.1.0"
