"""Conversational passage ranking with multi-aspect query generation.

The package covers the full loop of a conversational search system:
indexing and first-stage retrieval (BM25 or learned-sparse dot product),
LLM-backed query rewriting with a record/replay exchange cache, rank
fusion and ensemble reranking, grounded response generation, persona
statement classification, and TREC-style evaluation with per-depth and
per-topic slices.
"""

from .conversation import (
    PTKBStatement,
    Topic,
    Turn,
    parse_topics,
    ptkb_text,
    render_context,
)
from .evaluation import (
    EvalCutoffs,
    MetricReport,
    Qrels,
    average_precision,
    evaluate_run,
    evaluate_rankings,
    format_report,
    ndcg_at_k,
    parse_qrels,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)
from .fusion import (
    LexicalOverlapScorer,
    NumericSuffixScorer,
    PseudoCrossEncoder,
    RemoteScorer,
    Scorer,
    ensemble_fuse,
    interleave,
    pool_candidates,
    rerank,
    resolve_scorer,
)
from .index import (
    AnalyzerConfig,
    InvertedIndex,
    Passage,
    RankedList,
    SparseVector,
    bm25_retrieve,
    build_index,
    build_sparse_index,
    load_sparse_vectors,
    read_corpus,
    sparse_retrieve,
    text_to_query_vector,
)
from .llm import (
    CacheMissError,
    HttpChatTransport,
    LLMCache,
    LLMGateway,
    QuerySet,
    TransportError,
    cache_key,
)
from .offline import ScriptedTransport, scripted_response
from .pipeline import (
    RunConfig,
    RunSpec,
    TurnExecutionError,
    TurnResult,
    execute_run,
    execute_spec,
    execute_turn,
    load_run_spec,
    write_response_records,
    write_trec_run,
)
from .prompts import TEMPLATES, render_prompt

__version__ = "0.1.0"
